//! The simulation engine: deterministic event loop over a dynamic network.
//!
//! At 10⁵ hosts and more the loop waits on memory: the state an event
//! touches (its host's logic record, alive flag, chain depth and
//! processed counter, or a fanout sender's CSR row) is rarely cached,
//! and the events come one after another. So the loop pipelines its
//! misses. Before it dispatches an event it prefetches what the event
//! [`LOOKAHEAD`] pops ahead touches first (the queue names it without
//! popping, `EventQueue::ahead`). A fanout prefetches every target's
//! state and row bounds before its first delivery, and each next
//! target's neighbour list while the current one is delivered. The
//! hints (`prefetch.rs`, the crate's one `unsafe`) change no dispatch
//! order, handler call, count or output. A run decides once, at build,
//! whether to use them: only when its per-host state outgrows
//! [`PREFETCH_MIN_BYTES`].

use crate::churn::ChurnPlan;
use crate::ctx::{CostSink, Ctx, EventSink};
use crate::delay::{DelayModel, PartitionPlan};
use crate::dynamic::{ChurnEvent, ChurnSource, EngineView};
use crate::event::{EventQueue, Payload, Touch, MASK_SLOTS};
use crate::metrics::Metrics;
use crate::node::NodeLogic;
use crate::overlay::{compact_threshold, OverlayDriver, OverlayEvent, OverlayStats, TopoRef};
use crate::prefetch::prefetch;
use crate::sink::{TelemetrySink, TickSample};
use crate::time::Time;
use crate::trace::{Trace, TraceEvent};
use pov_topology::{Graph, HostId, OverlayView};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::borrow::Cow;

/// How many pops ahead of the event being dispatched
/// [`Simulation::prefetch_ahead`] reaches: far enough that a miss
/// lands before its event dispatches, near enough that the line is
/// still cached when it does (docs/BENCHMARKING.md, "Prefetching the
/// next events' hosts").
const LOOKAHEAD: usize = 6;

/// The per-host engine state, in bytes, from which a simulation
/// prefetches: `n` logic records plus 9 bytes per host of alive flag,
/// chain depth and processed counter. Below it (one core's 2 MiB L2)
/// the state stays cached, and the hints would only cost their
/// instructions: every repo workload but `scale_tree` is under 1.1 MB,
/// the 10⁵-host ladder rung is over 4 MB.
const PREFETCH_MIN_BYTES: usize = 2 << 20;

/// The physical communication medium (§3.1 examples).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Medium {
    /// P2P overlay: one message per (sender, receiver) pair.
    #[default]
    PointToPoint,
    /// Wireless sensor radio: one transmission reaches every neighbour
    /// at the cost of a single message (§5.3).
    Radio,
}

/// Builder for [`Simulation`].
pub struct SimBuilder<'g> {
    graph: Cow<'g, Graph>,
    medium: Medium,
    delay: DelayModel,
    churn: ChurnPlan,
    dynamic: Option<Box<dyn ChurnSource>>,
    overlay: Option<Box<dyn OverlayDriver>>,
    partition: Option<PartitionPlan>,
    seed: u64,
    tele: Option<&'g mut (dyn TelemetrySink + 'static)>,
    #[cfg(test)]
    heap_queue_oracle: bool,
}

impl SimBuilder<'static> {
    /// Start building a simulation that owns `graph`.
    pub fn new(graph: Graph) -> Self {
        SimBuilder::with_graph(Cow::Owned(graph))
    }
}

impl<'g> SimBuilder<'g> {
    /// Start building a simulation that *borrows* `graph` — the batch
    /// entry point: a thousand-cell sweep over one topology shares a
    /// single CSR arena instead of cloning the adjacency per run.
    pub fn over(graph: &'g Graph) -> Self {
        SimBuilder::with_graph(Cow::Borrowed(graph))
    }

    fn with_graph(graph: Cow<'g, Graph>) -> Self {
        SimBuilder {
            graph,
            medium: Medium::PointToPoint,
            delay: DelayModel::default(),
            churn: ChurnPlan::none(),
            dynamic: None,
            overlay: None,
            partition: None,
            seed: 0,
            tele: None,
            #[cfg(test)]
            heap_queue_oracle: false,
        }
    }

    /// Select the communication medium (default: point-to-point).
    pub fn medium(mut self, medium: Medium) -> Self {
        self.medium = medium;
        self
    }

    /// Select the per-hop delay model (default: fixed 1 tick).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Install a churn plan (default: no churn).
    pub fn churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = churn;
        self
    }

    /// Install a *dynamic* churn source, polled by the event loop while
    /// the run executes (default: none). Composes with a static
    /// [`ChurnPlan`]: plan events are pre-materialized into the queue,
    /// source events are injected at poll time — within one tick the
    /// plan's failures and joins apply first, then the source's.
    pub fn dynamic_churn(mut self, source: impl ChurnSource + 'static) -> Self {
        self.dynamic = Some(Box::new(source));
        self
    }

    /// Install an overlay-maintenance driver, polled by the event loop
    /// while the run executes (default: none). The engine layers a
    /// mutable [`OverlayView`] over the base graph and applies the edge
    /// mutations the driver answers with; from then on protocol `Ctx`
    /// neighbour reads and churn-source [`EngineView`]s serve the
    /// overlay's current merged adjacency. Within a tick, overlay polls
    /// run after failures, joins and churn-source polls and before
    /// message deliveries.
    pub fn overlay(mut self, driver: impl OverlayDriver + 'static) -> Self {
        self.overlay = Some(Box::new(driver));
        self
    }

    /// Install a temporary partition: messages crossing any of its cuts
    /// while one of that cut's windows is active are lost in transit
    /// (default: none).
    pub fn partition(mut self, partition: PartitionPlan) -> Self {
        assert_eq!(
            partition.num_hosts(),
            self.graph.num_hosts(),
            "one partition side per host"
        );
        self.partition = Some(partition);
        self
    }

    /// Seed for all randomness inside the run (delays, protocol RNG).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a telemetry sink observing the run (default: none). The
    /// engine borrows the sink for the simulation's lifetime and feeds
    /// it per-tick activity samples — see [`TelemetrySink`] for the
    /// determinism guarantees. With no sink attached every telemetry
    /// hook on the hot path reduces to one `Option` discriminant test.
    pub fn telemetry(mut self, sink: &'g mut (dyn TelemetrySink + 'static)) -> Self {
        self.tele = Some(sink);
        self
    }

    /// Route the event queue through the pre-refactor `BinaryHeap`
    /// implementation — the oracle side of the engine-level equivalence
    /// property tests.
    #[cfg(test)]
    pub(crate) fn heap_queue_oracle(mut self) -> Self {
        self.heap_queue_oracle = true;
        self
    }

    /// Instantiate per-host logic with `factory` and produce a runnable
    /// [`Simulation`]. `on_start` has not run yet — call
    /// [`Simulation::start`] (or one of the `run_*` helpers).
    ///
    /// The simulation owns every host-indexed buffer allocated here and
    /// frees them when it drops: nothing carries over to the next
    /// simulation a batch worker builds.
    pub fn build<L: NodeLogic>(self, mut factory: impl FnMut(HostId) -> L) -> Simulation<'g, L> {
        let n = self.graph.num_hosts();
        let mut alive = vec![true; n];
        for h in self.churn.initially_dead() {
            alive[h.index()] = false;
        }
        let num_alive = alive.iter().filter(|&&a| a).count() as u32;
        #[cfg(test)]
        let mut queue = if self.heap_queue_oracle {
            EventQueue::heap_oracle()
        } else {
            EventQueue::new()
        };
        #[cfg(not(test))]
        let mut queue = EventQueue::new();
        for &(t, h) in &self.churn.failures {
            queue.push(t, Payload::Fail(h));
        }
        for &(t, h) in &self.churn.joins {
            queue.push(t, Payload::Join(h));
        }
        if self.dynamic.is_some() {
            // First poll at time 0; each poll schedules the next.
            queue.push(Time::ZERO, Payload::ChurnPoll);
        }
        let overlay = self.overlay.map(|driver| {
            // The overlay owns a mutable copy of the base CSR; batch
            // cells that share a borrowed graph still get independent
            // edge evolution.
            queue.push(Time::ZERO, Payload::OverlayPoll);
            OverlayState {
                view: OverlayView::new(Graph::clone(&self.graph)),
                driver,
                buf: Vec::new(),
                edges_added: 0,
                edges_removed: 0,
            }
        });
        // A broadcast's copies share one instant on a fixed neighbour
        // list only over the static CSR with a fixed delay.
        let fanout = overlay.is_none() && matches!(self.delay, DelayModel::Fixed(_));
        let logic: Vec<L> = (0..n as u32).map(|i| factory(HostId(i))).collect();
        let tele = self.tele.map(|sink| {
            sink.on_run_start(n);
            Telemetry {
                next_summary: sink.summary_every().map(|_| 0),
                sink,
                touched: vec![0; n],
                counts: TickCounts::default(),
                flushed_through: 0,
            }
        });
        Simulation {
            tele,
            trace: Trace::new(alive.clone()),
            graph: self.graph,
            hosts: Hosts {
                logic,
                alive,
                num_alive,
                last_depth: vec![0; n],
            },
            queue,
            metrics: Metrics::with_hosts(n),
            medium: self.medium,
            delay: self.delay,
            dynamic: self.dynamic,
            overlay,
            partition: self.partition,
            rng: SmallRng::seed_from_u64(self.seed),
            seed: self.seed,
            shard: None,
            shard_batches: 0,
            fanout,
            prefetch: n * (std::mem::size_of::<L>() + 9) >= PREFETCH_MIN_BYTES,
            churn_buf: Vec::new(),
            now: Time::ZERO,
            started: false,
        }
    }
}

/// Per-host engine state in struct-of-arrays layout: the three arrays
/// every dispatch touches (`logic`, `alive`, `last_depth`), flattened
/// behind one accessor so the hot path indexes parallel dense arrays
/// rather than chasing per-host structs.
struct Hosts<L> {
    logic: Vec<L>,
    alive: Vec<bool>,
    /// Number of `true` flags in `alive`, kept by `set_alive`.
    num_alive: u32,
    /// Deepest causal chain seen by each host; timers continue the
    /// chain from here.
    last_depth: Vec<u32>,
}

impl<L> Hosts<L> {
    #[inline]
    fn len(&self) -> usize {
        self.logic.len()
    }

    #[inline]
    fn is_alive(&self, h: HostId) -> bool {
        self.alive[h.index()]
    }

    #[inline]
    fn set_alive(&mut self, h: HostId, alive: bool) {
        debug_assert_ne!(self.alive[h.index()], alive, "a toggle changes the flag");
        self.alive[h.index()] = alive;
        if alive {
            self.num_alive += 1;
        } else {
            self.num_alive -= 1;
        }
    }

    #[inline]
    fn logic(&self, h: HostId) -> &L {
        &self.logic[h.index()]
    }

    #[inline]
    fn last_depth(&self, h: HostId) -> u32 {
        self.last_depth[h.index()]
    }

    #[inline]
    fn raise_depth(&mut self, h: HostId, depth: u32) {
        let slot = &mut self.last_depth[h.index()];
        *slot = (*slot).max(depth);
    }

    /// Debug-only audit of the liveness bookkeeping: the counter
    /// matches a recount of the flags.
    fn audit_alive(&self) {
        debug_assert_eq!(
            self.alive.iter().filter(|&&a| a).count(),
            self.num_alive as usize,
            "alive count drifted from the flags"
        );
    }
}

/// Per-tick counters aggregated for the telemetry sink. Reset when the
/// tick's sample is flushed.
#[derive(Default)]
struct TickCounts {
    dispatched: u64,
    delivered: u64,
    dropped: u64,
    fails: u64,
    joins: u64,
    timers: u64,
    frontier: u32,
    overlay_added: u64,
    overlay_removed: u64,
    overlay_suspicions: u64,
}

/// Engine-side state of a maintained overlay: the mutable view layered
/// over the base CSR, the installed driver, and reused poll scratch.
struct OverlayState {
    view: OverlayView,
    driver: Box<dyn OverlayDriver>,
    /// Reused per-poll scratch: the driver's mutation wave.
    buf: Vec<OverlayEvent>,
    /// Engine-applied undirected edge additions (idempotent no-ops
    /// excluded).
    edges_added: u64,
    /// Engine-applied undirected edge removals.
    edges_removed: u64,
}

/// Telemetry state carried by a simulation with a sink attached. Lives
/// entirely outside the disabled path: a sink-less run never allocates
/// or touches any of this.
struct Telemetry<'s> {
    sink: &'s mut (dyn TelemetrySink + 'static),
    /// Per-host stamp (`tick + 1`) marking wave-frontier membership.
    /// `u32` halves the buffer (4 MiB saved at n = 10⁶); runs are
    /// bounded well under 2³² ticks (debug-asserted at the stamp site).
    touched: Vec<u32>,
    counts: TickCounts,
    /// Next tick at or after which to take a protocol-state sample.
    next_summary: Option<u64>,
    /// Ticks `< flushed_through` have already emitted their sample —
    /// guards against re-sampling a tick when `run_until` is called
    /// again with a later horizon.
    flushed_through: u64,
}

/// A running simulation: the network graph (owned or borrowed from the
/// batch driver), per-host logic, the event queue and the collected
/// metrics/trace.
pub struct Simulation<'g, L: NodeLogic> {
    graph: Cow<'g, Graph>,
    hosts: Hosts<L>,
    queue: EventQueue<L::Msg>,
    metrics: Metrics,
    trace: Trace,
    medium: Medium,
    delay: DelayModel,
    dynamic: Option<Box<dyn ChurnSource>>,
    overlay: Option<OverlayState>,
    partition: Option<PartitionPlan>,
    rng: SmallRng,
    /// Builder seed, retained to derive per-event RNG streams under
    /// sharded delivery.
    seed: u64,
    /// Sharded-delivery configuration; `None` = sequential dispatch
    /// (see [`Simulation::enable_sharded_delivery`]).
    shard: Option<ShardCfg<L>>,
    /// Delivery batches drained so far — the per-event RNG's batch
    /// ordinal, advanced identically for every thread count.
    shard_batches: u64,
    /// Whether handlers may queue a broadcast or an update round as one
    /// [`Payload::Fanout`] (see `Ctx::fanout`): a static topology, a
    /// fixed delay, and no sharded delivery, which batches single
    /// deliveries only.
    fanout: bool,
    /// Whether the loop prefetches the state of the events ahead: the
    /// per-host state reaches [`PREFETCH_MIN_BYTES`].
    prefetch: bool,
    tele: Option<Telemetry<'g>>,
    /// Reused per-poll scratch: the churn source's event wave.
    churn_buf: Vec<ChurnEvent>,
    now: Time,
    started: bool,
}

impl<'g, L: NodeLogic> Simulation<'g, L> {
    /// Fire `on_start` for every initially-alive host (ascending id
    /// order). Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.hosts.len() {
            if self.hosts.alive[i] {
                self.activate(HostId(i as u32), Activation::Start);
            }
        }
    }

    /// Turn on sharded message delivery: each tick's delivery run is
    /// collected as one closed batch (sends always land ≥ 1 tick ahead,
    /// so no handler can extend the current instant's deliveries),
    /// partitioned across `threads` scoped worker threads by contiguous
    /// destination-host range, and the handlers' buffered pushes merged
    /// back into the queue in global origin order.
    ///
    /// **Determinism contract:** every observable of the run — metrics,
    /// trace, telemetry, per-host protocol state — is byte-identical
    /// for *any* `threads` value (including 1), because per-destination
    /// processing order, queue push order and per-event RNG streams are
    /// all derived from batch origin indices, never from thread
    /// scheduling. Output is *not* required to match the sequential
    /// (non-sharded) engine for protocols that draw from [`Ctx::rng`]:
    /// sharding gives each delivery its own seeded stream instead of
    /// one stream threaded through all events. RNG-free protocols (and
    /// the default fixed delay model, which never samples) match the
    /// sequential engine exactly.
    pub fn enable_sharded_delivery(&mut self, threads: usize)
    where
        L: Send,
        L::Msg: Send,
    {
        self.shard = Some(ShardCfg {
            threads: threads.max(1),
            drain: drain_deliver_batch::<L>,
        });
        self.fanout = false;
    }

    /// Run until the event queue is exhausted or virtual time would
    /// exceed `horizon`. Events exactly at `horizon` are processed.
    pub fn run_until(&mut self, horizon: Time) {
        self.start();
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            if self.tele.is_some() && t != self.now {
                self.tele_flush_tick();
            }
            let (at, payload) = self.queue.pop().expect("peeked event exists");
            self.now = at;
            if self.prefetch {
                self.prefetch_ahead();
            }
            self.dispatch(payload);
        }
        if self.tele.is_some() {
            self.tele_flush_tick();
        }
        // Advance the clock to the horizon so callers polling `now()` see
        // time progress even across event-free stretches.
        self.now = self.now.max(horizon);
    }

    /// Run until no events remain. Panics if more than `max_events`
    /// events fire — a guard against protocol livelock. Events are
    /// counted as dispatched: a fanout counts one per target.
    pub fn run_to_quiescence(&mut self, max_events: u64) {
        self.start();
        let first = self.metrics.events_dispatched;
        while let Some(t) = self.queue.peek_time() {
            if self.tele.is_some() && t != self.now {
                self.tele_flush_tick();
            }
            let (at, payload) = self.queue.pop().expect("peeked event exists");
            self.now = at;
            if self.prefetch {
                self.prefetch_ahead();
            }
            self.dispatch(payload);
            assert!(
                self.metrics.events_dispatched - first <= max_events,
                "protocol did not quiesce after {max_events} events"
            );
        }
        if self.tele.is_some() {
            self.tele_flush_tick();
        }
    }

    /// Close out the current tick for the telemetry sink: emit a
    /// [`TickSample`] if anything happened, and take a periodic
    /// protocol-state sample when the sink asked for one. Called only
    /// when a sink is attached.
    fn tele_flush_tick(&mut self) {
        let tick = self.now.ticks();
        let sent = self
            .metrics
            .sent_per_tick
            .get(tick as usize)
            .copied()
            .unwrap_or(0);
        let queue_depth = self.queue.len() as u64;
        let alive = self.hosts.num_alive;
        let Some(t) = self.tele.as_mut() else { return };
        if (t.counts.dispatched != 0 || sent != 0) && t.flushed_through <= tick {
            t.flushed_through = tick + 1;
            let sample = TickSample {
                tick,
                alive,
                queue_depth,
                dispatched: t.counts.dispatched,
                delivered: t.counts.delivered,
                dropped: t.counts.dropped,
                sent,
                fails: t.counts.fails,
                joins: t.counts.joins,
                timers: t.counts.timers,
                frontier: t.counts.frontier,
                overlay_added: t.counts.overlay_added,
                overlay_removed: t.counts.overlay_removed,
                overlay_suspicions: t.counts.overlay_suspicions,
            };
            t.sink.on_tick(&sample);
            t.counts = TickCounts::default();
        }
        if t.next_summary.is_some_and(|next| tick >= next) {
            let every = t.sink.summary_every().unwrap_or(1).max(1);
            t.next_summary = Some(tick + every);
            // Mass still present in the network: alive hosts only
            // (failed hosts retain a summary, but their partials are
            // gone with them), summed in ascending host order so the
            // f64 sum is deterministic.
            let mut active = 0u32;
            let mut mass = 0.0f64;
            let hosts = &self.hosts;
            for (logic, _) in hosts.logic.iter().zip(&hosts.alive).filter(|(_, &a)| a) {
                let s = logic.summary();
                if s.active {
                    active += 1;
                }
                if let Some(w) = s.sketch_weight {
                    mass += w;
                }
            }
            t.sink.on_summary(Time(tick), active, mass);
        }
    }

    /// Start loading the state that the event [`LOOKAHEAD`] pops ahead
    /// touches first, so that its misses overlap the dispatches in
    /// between instead of stalling its own. A hint only: no order,
    /// count or output can change.
    #[inline]
    fn prefetch_ahead(&self) {
        match self.queue.ahead(LOOKAHEAD) {
            Some(Touch::Host(h)) => self.prefetch_host(h),
            Some(Touch::Row(h)) => self.prefetch_row(h),
            None => {}
        }
    }

    /// Prefetch what a delivery to `h` or a timer of `h` reads of it:
    /// its logic record, alive flag, chain depth and processed counter.
    #[inline]
    fn prefetch_host(&self, h: HostId) {
        let i = h.index();
        prefetch(self.hosts.logic.as_ptr().wrapping_add(i));
        prefetch(self.hosts.alive.as_ptr().wrapping_add(i));
        prefetch(self.hosts.last_depth.as_ptr().wrapping_add(i));
        prefetch(self.metrics.processed_per_host.as_ptr().wrapping_add(i));
    }

    /// Prefetch the bounds of `h`'s CSR row: the word a fanout from `h`,
    /// or a send of `h`'s, reads before its neighbour list.
    #[inline]
    fn prefetch_row(&self, h: HostId) {
        prefetch(self.graph.offsets().as_ptr().wrapping_add(h.index()));
    }

    fn dispatch(&mut self, payload: Payload<L::Msg>) {
        self.metrics.record_dispatch();
        if let Some(t) = self.tele.as_mut() {
            t.counts.dispatched += 1;
        }
        match payload {
            Payload::Fail(h) => self.fail(h),
            Payload::Join(h) => self.join(h),
            Payload::Deliver {
                to,
                from,
                msg,
                depth,
            } => {
                if self.shard.is_some() {
                    // Sharded path: collect the whole (closed) delivery
                    // run of this instant and fan it out across worker
                    // threads; `drain` is the bound-carrying fn pointer
                    // installed by `enable_sharded_delivery`.
                    let drain = self.shard.as_ref().expect("checked").drain;
                    drain(
                        self,
                        DeliverEvent {
                            to,
                            from,
                            msg,
                            depth,
                        },
                    );
                    return;
                }
                self.deliver(to, from, msg, depth);
            }
            Payload::Fanout {
                from,
                targets,
                msg,
                depth,
            } => self.fan_out(from, targets, msg, depth),
            Payload::Timer { host, key } => {
                if self.hosts.is_alive(host) {
                    self.metrics.record_timer();
                    if let Some(t) = self.tele.as_mut() {
                        t.counts.timers += 1;
                    }
                    self.activate(host, Activation::Timer { key });
                }
            }
            Payload::ChurnPoll => self.poll_churn_source(),
            Payload::OverlayPoll => self.poll_overlay_driver(),
        }
    }

    /// Deliver `msg` to `to`: only to a host alive *now*, and not across
    /// an active partition cut. A lost message vanishes (the sender has
    /// already paid for it).
    #[inline]
    fn deliver(&mut self, to: HostId, from: HostId, msg: L::Msg, depth: u32) {
        let severed = self
            .partition
            .as_ref()
            .is_some_and(|p| p.blocks(self.now, from, to));
        let live = self.hosts.is_alive(to) && !severed;
        if let Some(t) = self.tele.as_mut() {
            if live {
                t.counts.delivered += 1;
                // Frontier = distinct hosts reached this tick;
                // the stamp dedups repeat deliveries.
                debug_assert!(self.now.ticks() < u64::from(u32::MAX));
                let stamp = (self.now.ticks() + 1) as u32;
                let slot = &mut t.touched[to.index()];
                if *slot != stamp {
                    *slot = stamp;
                    t.counts.frontier += 1;
                }
            } else {
                t.counts.dropped += 1;
            }
        }
        if live {
            self.metrics.record_processed(to, depth);
            self.hosts.raise_depth(to, depth);
            self.activate(to, Activation::Message { from, msg, depth });
        }
    }

    /// Expand a [`Payload::Fanout`]: deliver to the CSR neighbours of
    /// `from` that `targets` selects, in row order, through the same
    /// path a single delivery takes. `dispatch` counted the entry as one
    /// event; each further target counts one more.
    fn fan_out(&mut self, from: HostId, targets: u32, msg: L::Msg, depth: u32) {
        let degree = self.graph.degree(from);
        let mut count = 0usize;
        if degree <= MASK_SLOTS {
            if self.prefetch {
                // One pass ahead of the deliveries: every target's
                // misses are in flight before the first handler runs.
                let mut mask = targets;
                while mask != 0 {
                    let to = self.graph.neighbors(from)[mask.trailing_zeros() as usize];
                    mask &= mask - 1;
                    self.prefetch_host(to);
                    self.prefetch_row(to);
                }
            }
            let mut mask = targets;
            while mask != 0 {
                let to = self.graph.neighbors(from)[mask.trailing_zeros() as usize];
                mask &= mask - 1;
                if self.prefetch && mask != 0 {
                    // The pass above prefetched the next target's row
                    // bounds: start on the row itself, which that
                    // target reads if it broadcasts.
                    let next = self.graph.neighbors(from)[mask.trailing_zeros() as usize];
                    prefetch(self.graph.neighbors(next).as_ptr());
                }
                count += 1;
                self.deliver(to, from, msg.clone(), depth);
            }
        } else {
            for i in 0..degree {
                let to = self.graph.neighbors(from)[i];
                if to.0 != targets {
                    count += 1;
                    self.deliver(to, from, msg.clone(), depth);
                }
            }
        }
        let extra = count as u64 - 1;
        self.metrics.events_dispatched += extra;
        if let Some(t) = self.tele.as_mut() {
            t.counts.dispatched += extra;
        }
        self.queue.retire_fanout(count);
    }

    /// Take `h` down — a planned failure or a churn source's, alike. A
    /// dead host is left alone.
    fn fail(&mut self, h: HostId) {
        if !self.hosts.is_alive(h) {
            return;
        }
        self.hosts.set_alive(h, false);
        self.trace.record(TraceEvent::Fail(self.now, h));
        if let Some(t) = self.tele.as_mut() {
            t.counts.fails += 1;
        }
    }

    /// Bring `h` back and fire its `on_start` — a planned join or a
    /// churn source's, alike. A live host is left alone.
    fn join(&mut self, h: HostId) {
        if self.hosts.is_alive(h) {
            return;
        }
        self.hosts.set_alive(h, true);
        self.trace.record(TraceEvent::Join(self.now, h));
        if let Some(t) = self.tele.as_mut() {
            t.counts.joins += 1;
        }
        self.activate(h, Activation::Start);
    }

    /// Poll the dynamic churn source: hand it an [`EngineView`], apply
    /// the events it writes into the (reused) wave buffer through the
    /// same `fail` / `join` as statically scheduled ones, and schedule
    /// the next poll it asks for.
    fn poll_churn_source(&mut self) {
        let Some(mut source) = self.dynamic.take() else {
            return;
        };
        self.hosts.audit_alive();
        let mut wave = std::mem::take(&mut self.churn_buf);
        wave.clear();
        let logic = &self.hosts.logic;
        let view = EngineView {
            now: self.now,
            graph: &self.graph,
            overlay: self.overlay.as_ref().map(|st| &st.view),
            alive: &self.hosts.alive,
            read_summary: &|h: HostId| logic[h.index()].summary(),
        };
        source.next_events(self.now, &view, &mut wave);
        for &ev in &wave {
            match ev {
                ChurnEvent::Fail(h) => self.fail(h),
                ChurnEvent::Join(h) => self.join(h),
            }
        }
        self.churn_buf = wave;
        if let Some(at) = source.next_poll(self.now) {
            assert!(at > self.now, "churn source must poll strictly forward");
            self.queue.push(at, Payload::ChurnPoll);
        }
        self.dynamic = Some(source);
    }

    /// Poll the overlay-maintenance driver: hand it an [`EngineView`]
    /// with the overlay's current merged adjacency, apply the edge
    /// mutations it writes into the (reused) wave buffer, fold the delta
    /// back into a fresh CSR when it has grown past the compaction
    /// threshold, and schedule the next poll it asks for.
    fn poll_overlay_driver(&mut self) {
        let Some(st) = self.overlay.as_mut() else {
            return;
        };
        self.hosts.audit_alive();
        let logic = &self.hosts.logic;
        let OverlayState {
            view,
            driver,
            buf,
            edges_added,
            edges_removed,
        } = st;
        buf.clear();
        let suspicions_before = driver.stats().suspicions;
        let engine_view = EngineView {
            now: self.now,
            graph: &self.graph,
            overlay: Some(&*view),
            alive: &self.hosts.alive,
            read_summary: &|h: HostId| logic[h.index()].summary(),
        };
        driver.next_events(self.now, &engine_view, buf);
        let mut added = 0u64;
        let mut removed = 0u64;
        for &ev in buf.iter() {
            match ev {
                OverlayEvent::AddEdge(a, b) => {
                    if view.add_edge(a, b) {
                        added += 1;
                    }
                }
                OverlayEvent::RemoveEdge(a, b) => {
                    if view.remove_edge(a, b) {
                        removed += 1;
                    }
                }
            }
        }
        if view.delta_len() >= compact_threshold(view.num_hosts()) {
            view.compact();
        }
        *edges_added += added;
        *edges_removed += removed;
        let suspicions_now = driver.stats().suspicions;
        if let Some(at) = driver.next_poll(self.now) {
            assert!(at > self.now, "overlay driver must poll strictly forward");
            self.queue.push(at, Payload::OverlayPoll);
        }
        if let Some(t) = self.tele.as_mut() {
            t.counts.overlay_added += added;
            t.counts.overlay_removed += removed;
            t.counts.overlay_suspicions += suspicions_now - suspicions_before;
        }
    }

    fn activate(&mut self, h: HostId, activation: Activation<L::Msg>) {
        let chain_depth = match &activation {
            Activation::Message { depth, .. } => *depth,
            _ => self.hosts.last_depth(h),
        };
        // Borrowed in place: the handler's `Ctx` only reaches fields
        // disjoint from `hosts.logic`.
        let logic = &mut self.hosts.logic[h.index()];
        let mut ctx = Ctx {
            now: self.now,
            me: h,
            topo: match &self.overlay {
                Some(st) => TopoRef::Overlay(&st.view),
                None => TopoRef::Static(&self.graph),
            },
            queue: EventSink::Direct(&mut self.queue),
            metrics: CostSink::Direct(&mut self.metrics),
            medium: self.medium,
            delay: self.delay,
            rng: &mut self.rng,
            chain_depth,
            in_timer: matches!(activation, Activation::Timer { .. }),
            fanout: self.fanout,
        };
        match activation {
            Activation::Start => logic.on_start(&mut ctx),
            Activation::Message { from, msg, .. } => logic.on_message(&mut ctx, from, msg),
            Activation::Timer { key } => logic.on_timer(&mut ctx, key),
        }
    }

    /// Immutable view of a host's logic (alive or failed — failed hosts
    /// retain their last state for post-mortem inspection).
    pub fn logic(&self, h: HostId) -> &L {
        self.hosts.logic(h)
    }

    /// Whether `h` is currently alive. This is the omniscient view used
    /// by oracles and by out-of-band probing.
    pub fn is_alive(&self, h: HostId) -> bool {
        self.hosts.is_alive(h)
    }

    /// Number of currently alive hosts.
    pub fn num_alive(&self) -> usize {
        self.hosts.num_alive as usize
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The *base* topology the simulation was built over. With an
    /// overlay driver installed the edges protocols actually route over
    /// are [`Simulation::overlay_view`]'s, not these.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained overlay's current merged view, when an
    /// [`OverlayDriver`] is installed.
    pub fn overlay_view(&self) -> Option<&OverlayView> {
        self.overlay.as_ref().map(|st| &st.view)
    }

    /// Overlay maintenance counters: the driver's protocol-level stats
    /// with the engine-applied edge mutation counts merged in. `None`
    /// when no driver is installed.
    pub fn overlay_stats(&self) -> Option<OverlayStats> {
        self.overlay.as_ref().map(|st| {
            let mut s = st.driver.stats();
            s.edges_added = st.edges_added;
            s.edges_removed = st.edges_removed;
            s
        })
    }

    /// Collected efficiency metrics (§6.3).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Ground-truth membership trace for the oracle.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Move the run record out of a finished simulation: the metrics,
    /// the membership trace and every host's alive flag, by host index —
    /// what [`Simulation::metrics`], [`Simulation::trace`] and
    /// [`Simulation::is_alive`] report. The rest of the simulation is
    /// dropped, so the record is never held twice. A record can outlive
    /// its run by far (a continuous query keeps one per window), so the
    /// two lists that grew by doubling are trimmed to their length.
    pub fn into_record(self) -> (Metrics, Trace, Vec<bool>) {
        let (mut metrics, mut trace) = (self.metrics, self.trace);
        metrics.sent_per_tick.shrink_to_fit();
        trace.events.shrink_to_fit();
        (metrics, trace, self.hosts.alive)
    }

    /// Number of pending events, a fanout counting one per target.
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

enum Activation<M> {
    Start,
    Message { from: HostId, msg: M, depth: u32 },
    Timer { key: u32 },
}

// ------------------------------------------------- sharded delivery

/// Sharded-delivery configuration installed by
/// [`Simulation::enable_sharded_delivery`]. The drain routine needs
/// `L: Send, L::Msg: Send` bounds that `Simulation` itself does not
/// carry; the enable method — the only place those bounds are checked —
/// coerces the generic fn to this pointer, keeping the dispatch hot
/// path bound-free.
struct ShardCfg<L: NodeLogic> {
    /// Worker threads the delivery batch is partitioned across.
    threads: usize,
    /// `drain_deliver_batch::<L>`, coerced to a pointer.
    drain: for<'s, 'g> fn(&'s mut Simulation<'g, L>, DeliverEvent<L::Msg>),
}

/// One delivery popped from the queue, awaiting shard processing.
struct DeliverEvent<M> {
    to: HostId,
    from: HostId,
    msg: M,
    depth: u32,
}

/// Per-shard accumulator, merged deterministically after the batch.
struct ShardOut<M> {
    /// Handler pushes tagged with the triggering event's origin index,
    /// in processing (= ascending-origin) order.
    pushes: Vec<(u32, Time, Payload<M>)>,
    /// Sends recorded by handlers (all at the batch instant).
    sends: u64,
    delivered: u64,
    dropped: u64,
    /// Distinct hosts newly stamped into this tick's wave frontier.
    frontier: u32,
    /// Deepest causal chain observed (max-merged into metrics).
    longest_chain: u32,
}

/// State shared read-only by every shard worker.
#[derive(Clone, Copy)]
struct ShardShared<'a> {
    topo: TopoRef<'a>,
    alive: &'a [bool],
    partition: Option<&'a PartitionPlan>,
    medium: Medium,
    delay: DelayModel,
    now: Time,
    seed: u64,
    batch_no: u64,
    tele_on: bool,
}

/// One worker's slice of the mutable per-host state: the contiguous
/// destination range `[base, base + len)` of each host-indexed array,
/// plus the batch items addressed to it.
struct ShardTask<'a, L: NodeLogic> {
    items: Vec<(u32, DeliverEvent<L::Msg>)>,
    logic: &'a mut [L],
    last_depth: &'a mut [u32],
    processed: &'a mut [u32],
    touched: Option<&'a mut [u32]>,
    base: usize,
}

/// Deterministic per-event RNG seed: mixes the run seed, the batch
/// ordinal and the event's origin index (splitmix64-style finalizer),
/// so each handler draws from its own stream regardless of which
/// worker thread runs it.
fn event_seed(seed: u64, batch: u64, origin: u32) -> u64 {
    let mut x = seed
        ^ batch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(origin).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Collect the closed delivery run of the current instant (`first` has
/// already been popped and dispatch-counted), fan it out across worker
/// threads by destination range, and merge the results back in a
/// thread-count-invariant order. See
/// [`Simulation::enable_sharded_delivery`] for the determinism
/// contract.
fn drain_deliver_batch<L>(sim: &mut Simulation<'_, L>, first: DeliverEvent<L::Msg>)
where
    L: NodeLogic + Send,
    L::Msg: Send,
{
    let now = sim.now;
    let mut batch = vec![first];
    while let Some(p) = sim.queue.pop_deliver_at(now) {
        match p {
            Payload::Deliver {
                to,
                from,
                msg,
                depth,
            } => batch.push(DeliverEvent {
                to,
                from,
                msg,
                depth,
            }),
            _ => unreachable!("pop_deliver_at returns deliveries only"),
        }
    }
    // The first event's dispatch was counted by `dispatch` already;
    // account for the rest of the batch.
    let extra = (batch.len() - 1) as u64;
    sim.metrics.events_dispatched += extra;
    if let Some(t) = sim.tele.as_mut() {
        t.counts.dispatched += extra;
    }
    let batch_no = sim.shard_batches;
    sim.shard_batches += 1;

    // Partition by contiguous destination range: shard s owns hosts
    // [s * chunk, (s + 1) * chunk). Within a shard, items stay in
    // ascending origin order, preserving per-destination FIFO.
    let n = sim.hosts.len();
    let threads = sim.shard.as_ref().expect("sharding enabled").threads;
    let chunk = n.div_ceil(threads).max(1);
    let num_shards = n.div_ceil(chunk).max(1);
    let mut items: Vec<Vec<(u32, DeliverEvent<L::Msg>)>> =
        (0..num_shards).map(|_| Vec::new()).collect();
    debug_assert!(batch.len() < u32::MAX as usize);
    for (o, ev) in batch.into_iter().enumerate() {
        items[ev.to.index() / chunk].push((o as u32, ev));
    }

    let shared = ShardShared {
        topo: match &sim.overlay {
            Some(st) => TopoRef::Overlay(&st.view),
            None => TopoRef::Static(&sim.graph),
        },
        alive: &sim.hosts.alive,
        partition: sim.partition.as_ref(),
        medium: sim.medium,
        delay: sim.delay,
        now,
        seed: sim.seed,
        batch_no,
        tele_on: sim.tele.is_some(),
    };
    let mut logic_it = sim.hosts.logic.chunks_mut(chunk);
    let mut depth_it = sim.hosts.last_depth.chunks_mut(chunk);
    let mut proc_it = sim.metrics.processed_per_host.chunks_mut(chunk);
    let mut touched_it = sim.tele.as_mut().map(|t| t.touched.chunks_mut(chunk));

    let mut outs: Vec<ShardOut<L::Msg>> = Vec::with_capacity(num_shards);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_shards);
        for (s, shard_items) in items.into_iter().enumerate() {
            let logic = logic_it.next().expect("one chunk per shard");
            let last_depth = depth_it.next().expect("one chunk per shard");
            let processed = proc_it.next().expect("one chunk per shard");
            let touched = touched_it
                .as_mut()
                .map(|it| it.next().expect("one chunk per shard"));
            if shard_items.is_empty() {
                continue;
            }
            let task = ShardTask {
                items: shard_items,
                logic,
                last_depth,
                processed,
                touched,
                base: s * chunk,
            };
            handles.push(scope.spawn(move || run_shard(shared, task)));
        }
        for h in handles {
            outs.push(h.join().expect("delivery shard worker panicked"));
        }
    });

    // Commutative merges first: counters and maxima.
    let mut sends = 0u64;
    for out in &outs {
        sends += out.sends;
        sim.metrics.longest_chain = sim.metrics.longest_chain.max(out.longest_chain);
    }
    sim.metrics.record_sends(now, sends);
    if let Some(t) = sim.tele.as_mut() {
        for out in &outs {
            t.counts.delivered += out.delivered;
            t.counts.dropped += out.dropped;
            t.counts.frontier += out.frontier;
        }
    }
    // Order-sensitive merge: replay every buffered push in ascending
    // global origin order — exactly the sequence sequential processing
    // would have pushed — so queue insertion (seq) order, and with it
    // every downstream tie-break, is thread-count-invariant. Each
    // origin's pushes live contiguously in one shard's buffer.
    let mut iters: Vec<_> = outs
        .into_iter()
        .map(|o| o.pushes.into_iter().peekable())
        .collect();
    loop {
        let mut best: Option<(u32, usize)> = None;
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some(&(o, _, _)) = it.peek() {
                if best.is_none_or(|(bo, _)| o < bo) {
                    best = Some((o, i));
                }
            }
        }
        let Some((origin, i)) = best else { break };
        while iters[i].peek().is_some_and(|&(o, _, _)| o == origin) {
            let (_, at, payload) = iters[i].next().expect("peeked");
            sim.queue.push(at, payload);
        }
    }
}

/// Process one shard's slice of a delivery batch. Mirrors the
/// sequential `Deliver` arm of `dispatch` exactly, with writes confined
/// to the shard's destination range and pushes/sends buffered for the
/// deterministic post-batch merge.
fn run_shard<L>(shared: ShardShared<'_>, task: ShardTask<'_, L>) -> ShardOut<L::Msg>
where
    L: NodeLogic + Send,
    L::Msg: Send,
{
    let ShardTask {
        items,
        logic,
        last_depth,
        processed,
        mut touched,
        base,
    } = task;
    let mut out = ShardOut {
        pushes: Vec::new(),
        sends: 0,
        delivered: 0,
        dropped: 0,
        frontier: 0,
        longest_chain: 0,
    };
    debug_assert!(shared.now.ticks() < u64::from(u32::MAX));
    let stamp = (shared.now.ticks() + 1) as u32;
    for (origin, ev) in items {
        let DeliverEvent {
            to,
            from,
            msg,
            depth,
        } = ev;
        let li = to.index() - base;
        let severed = shared
            .partition
            .is_some_and(|p| p.blocks(shared.now, from, to));
        let live = shared.alive[to.index()] && !severed;
        if shared.tele_on {
            if live {
                out.delivered += 1;
                let slot = &mut touched.as_mut().expect("tele on => touched chunk")[li];
                if *slot != stamp {
                    *slot = stamp;
                    out.frontier += 1;
                }
            } else {
                out.dropped += 1;
            }
        }
        if !live {
            continue;
        }
        debug_assert!(
            processed[li] < u32::MAX,
            "per-host processed count overflow"
        );
        processed[li] += 1;
        out.longest_chain = out.longest_chain.max(depth);
        last_depth[li] = last_depth[li].max(depth);
        let mut rng = SmallRng::seed_from_u64(event_seed(shared.seed, shared.batch_no, origin));
        let mut ctx = Ctx {
            now: shared.now,
            me: to,
            topo: shared.topo,
            queue: EventSink::Shard {
                buf: &mut out.pushes,
                origin,
            },
            metrics: CostSink::Shard {
                sends: &mut out.sends,
            },
            medium: shared.medium,
            delay: shared.delay,
            rng: &mut rng,
            chain_depth: depth,
            in_timer: false,
            fanout: false,
        };
        logic[li].on_message(&mut ctx, from, msg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::generators::special;

    /// Flood-and-count test logic: the origin broadcasts a token; every
    /// host forwards it once; each host records when it first saw it.
    #[derive(Debug)]
    struct Flood {
        origin: bool,
        seen_at: Option<Time>,
    }

    impl NodeLogic for Flood {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if self.origin {
                self.seen_at = Some(ctx.now());
                ctx.broadcast(());
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: HostId, _msg: ()) {
            if self.seen_at.is_none() {
                self.seen_at = Some(ctx.now());
                ctx.broadcast_except(Some(from), ());
            }
        }
    }

    fn flood_sim(graph: Graph, medium: Medium) -> Simulation<'static, Flood> {
        SimBuilder::new(graph).medium(medium).build(|h| Flood {
            origin: h == HostId(0),
            seen_at: None,
        })
    }

    #[test]
    fn flood_reaches_chain_in_hop_time() {
        let mut sim = flood_sim(special::chain(6), Medium::PointToPoint);
        sim.run_to_quiescence(1_000);
        for i in 0..6u32 {
            assert_eq!(
                sim.logic(HostId(i)).seen_at,
                Some(Time(i as u64)),
                "host {i}"
            );
        }
    }

    #[test]
    fn flood_message_cost_point_to_point() {
        // Chain of 4: h0 sends 1; h1 forwards to h2 (skip h0); h2 to h3;
        // h3 forwards to nobody (only neighbor is sender). Total 3.
        let mut sim = flood_sim(special::chain(4), Medium::PointToPoint);
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.metrics().messages_sent, 3);
    }

    #[test]
    fn flood_message_cost_radio() {
        // Radio: each of the 4 hosts transmits at most once; h3 has only
        // the sender as neighbor but radio cannot exclude it, so it still
        // transmits. Total 4.
        let mut sim = flood_sim(special::chain(4), Medium::Radio);
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.metrics().messages_sent, 4);
    }

    #[test]
    fn radio_duplicate_receipts_are_processed() {
        // In a triangle under radio, every transmission reaches both other
        // hosts; hosts process duplicates even though they forward once.
        let mut sim = flood_sim(special::cycle(3), Medium::Radio);
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.metrics().messages_sent, 3);
        // Each host receives from both others: 2 processed each.
        assert_eq!(sim.metrics().total_processed(), 6);
    }

    #[test]
    fn failed_host_blocks_flood() {
        let churn = ChurnPlan::none().with_failure(Time(1), HostId(2));
        let mut sim = SimBuilder::new(special::chain(5))
            .churn(churn)
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_to_quiescence(1_000);
        // h2 fails at t=1, before the flood (sent at t=1 by h1) arrives at
        // t=2; h3, h4 never hear it.
        assert_eq!(sim.logic(HostId(1)).seen_at, Some(Time(1)));
        assert_eq!(sim.logic(HostId(2)).seen_at, None);
        assert_eq!(sim.logic(HostId(3)).seen_at, None);
        assert!(sim.trace().events.len() == 1);
    }

    #[test]
    fn join_activates_logic() {
        #[derive(Debug)]
        struct Joiner {
            started_at: Option<Time>,
        }
        impl NodeLogic for Joiner {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.started_at = Some(ctx.now());
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
        }
        let churn = ChurnPlan::none().with_join(Time(5), HostId(1));
        let mut sim = SimBuilder::new(special::chain(2))
            .churn(churn)
            .build(|_| Joiner { started_at: None });
        sim.run_to_quiescence(100);
        assert_eq!(sim.logic(HostId(0)).started_at, Some(Time(0)));
        assert_eq!(sim.logic(HostId(1)).started_at, Some(Time(5)));
    }

    #[test]
    fn timers_fire_in_order() {
        #[derive(Debug)]
        struct Timers {
            fired: Vec<u32>,
        }
        impl NodeLogic for Timers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(5, 5);
                ctx.set_timer(1, 1);
                ctx.set_timer(3, 3);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, key: u32) {
                self.fired.push(key);
            }
        }
        let mut sim = SimBuilder::new(special::chain(2)).build(|_| Timers { fired: vec![] });
        sim.run_to_quiescence(100);
        assert_eq!(sim.logic(HostId(0)).fired, vec![1, 3, 5]);
        assert_eq!(sim.metrics().timers_fired, 6);
    }

    #[test]
    fn dead_hosts_lose_timers_and_messages() {
        #[derive(Debug)]
        struct T {
            fired: bool,
        }
        impl NodeLogic for T {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == HostId(1) {
                    ctx.set_timer(10, 0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: u32) {
                self.fired = true;
            }
        }
        let churn = ChurnPlan::none().with_failure(Time(5), HostId(1));
        let mut sim = SimBuilder::new(special::chain(2))
            .churn(churn)
            .build(|_| T { fired: false });
        sim.run_to_quiescence(100);
        assert!(!sim.logic(HostId(1)).fired);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = flood_sim(special::chain(10), Medium::PointToPoint);
        sim.run_until(Time(3));
        assert_eq!(sim.logic(HostId(3)).seen_at, Some(Time(3)));
        assert_eq!(sim.logic(HostId(4)).seen_at, None);
        // Continue to the end.
        sim.run_until(Time(100));
        assert_eq!(sim.logic(HostId(9)).seen_at, Some(Time(9)));
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = flood_sim(
                pov_topology::generators::random_average_degree(200, 4.0, 3),
                Medium::PointToPoint,
            );
            sim.run_to_quiescence(100_000);
            (
                sim.metrics().messages_sent,
                sim.metrics().total_processed(),
                sim.metrics().longest_chain,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chain_depth_tracks_hops() {
        let mut sim = flood_sim(special::chain(7), Medium::PointToPoint);
        sim.run_to_quiescence(1_000);
        // Longest causal chain = 6 hops to the end of the chain.
        assert_eq!(sim.metrics().longest_chain, 6);
    }

    #[test]
    fn multicast_accounting_per_medium() {
        // A star centre multicasts to 3 of its 5 leaves: one message
        // under radio, three under point-to-point; only the addressed
        // leaves process it either way.
        #[derive(Debug)]
        struct M {
            got: bool,
        }
        impl NodeLogic for M {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == HostId(0) {
                    ctx.multicast(&[HostId(1), HostId(2), HostId(3)], ());
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {
                self.got = true;
            }
        }
        for (medium, cost) in [(Medium::Radio, 1u64), (Medium::PointToPoint, 3u64)] {
            let mut sim = SimBuilder::new(special::star(6))
                .medium(medium)
                .build(|_| M { got: false });
            sim.run_to_quiescence(100);
            assert_eq!(sim.metrics().messages_sent, cost, "{medium:?}");
            for h in 1..=3u32 {
                assert!(sim.logic(HostId(h)).got, "{medium:?} host {h}");
            }
            for h in 4..=5u32 {
                assert!(
                    !sim.logic(HostId(h)).got,
                    "{medium:?} host {h} (MAC filter)"
                );
            }
            assert_eq!(sim.metrics().total_processed(), 3, "{medium:?}");
        }
    }

    #[test]
    fn tick_end_timer_fires_after_same_tick_deliveries() {
        // Host 1 receives two messages at t=1 and schedules a tick-end
        // flush on the first; the flush must observe both.
        #[derive(Debug, Default)]
        struct F {
            received: u32,
            flushed_with: Option<u32>,
        }
        impl NodeLogic for F {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == HostId(0) {
                    ctx.send(HostId(1), ());
                    ctx.send(HostId(1), ());
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: HostId, _: ()) {
                if self.received == 0 {
                    ctx.set_timer_at_tick_end(9);
                }
                self.received += 1;
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, ()>, key: u32) {
                assert_eq!(key, 9);
                self.flushed_with = Some(self.received);
            }
        }
        let mut sim = SimBuilder::new(special::chain(2)).build(|_| F::default());
        sim.run_to_quiescence(100);
        assert_eq!(sim.logic(HostId(1)).flushed_with, Some(2));
    }

    #[test]
    fn partition_blocks_flood_until_heal() {
        // Chain of 6 partitioned between h2 and h3 during [0, 10): the
        // flood reaches h0..h2 immediately, and crosses only after heal.
        let cut = PartitionPlan::new(vec![1, 1, 1, 0, 0, 0]).window(Time(0), Time(10));
        let mut sim = SimBuilder::new(special::chain(6))
            .partition(cut)
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_until(Time(9));
        assert_eq!(sim.logic(HostId(2)).seen_at, Some(Time(2)));
        assert_eq!(sim.logic(HostId(3)).seen_at, None, "cut still active");
        // Flood logic forwards once; the h2→h3 copy died in transit, so
        // after the heal nobody re-sends: the two sides stay disjoint.
        sim.run_until(Time(50));
        assert_eq!(sim.logic(HostId(3)).seen_at, None);
    }

    #[test]
    fn healed_partition_delivers_again() {
        // Cut active only during [1, 3): a message sent at t=3 (after
        // heal) crosses fine. h0 re-broadcasts every 2 ticks via timers.
        #[derive(Debug)]
        struct Pinger {
            got: Option<Time>,
        }
        impl NodeLogic for Pinger {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.me() == HostId(0) {
                    ctx.send(HostId(1), ());
                    ctx.set_timer(2, 0);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: HostId, _: ()) {
                if self.got.is_none() {
                    self.got = Some(ctx.now());
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u32) {
                ctx.send(HostId(1), ());
                ctx.set_timer(2, 0);
            }
        }
        let cut = PartitionPlan::new(vec![0, 1]).window(Time(1), Time(3));
        let mut sim = SimBuilder::new(special::chain(2))
            .partition(cut)
            .build(|_| Pinger { got: None });
        sim.run_until(Time(6));
        // t=1 delivery blocked (window active), t=3 delivery (sent at
        // t=2) arrives exactly as the window closes.
        assert_eq!(sim.logic(HostId(1)).got, Some(Time(3)));
    }

    #[test]
    fn dynamic_source_sees_node_summaries() {
        use crate::dynamic::StateSummary;

        // Logic that exposes its host id as the sketch weight; a
        // SketchAdversary must kill the highest ids first and spare h0.
        #[derive(Debug)]
        struct Weighted(HostId);
        impl NodeLogic for Weighted {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
            fn summary(&self) -> StateSummary {
                StateSummary {
                    active: true,
                    sketch_weight: Some(f64::from(self.0 .0)),
                }
            }
        }
        let adversary = crate::SketchAdversary::new(2, 4, Time(1), Time(9), HostId(0));
        let mut sim = SimBuilder::new(special::cycle(8))
            .dynamic_churn(adversary)
            .build(Weighted);
        sim.run_until(Time(20));
        // Budget 4, highest weights first: h7, h6, h5, h4 die; h0 lives.
        let alive: Vec<bool> = (0..8u32).map(|h| sim.is_alive(HostId(h))).collect();
        assert_eq!(
            alive,
            vec![true, true, true, true, false, false, false, false]
        );
        assert_eq!(sim.trace().events.len(), 4);
    }

    /// Once started, counts the one-tick timers it has fired, so its
    /// summary changes every tick; host h counts from 10·h.
    #[derive(Debug)]
    struct Ticking(bool, u32);
    impl NodeLogic for Ticking {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.0 = true;
            ctx.set_timer(1, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u32) {
            self.1 += 1;
            ctx.set_timer(1, 0);
        }
        fn summary(&self) -> crate::StateSummary {
            crate::StateSummary {
                active: self.0,
                sketch_weight: Some(f64::from(self.1)),
            }
        }
    }

    /// Records every host's summary at each poll, t = 0..=8, polled as
    /// a churn source or as an overlay driver.
    struct SummaryLog(std::rc::Rc<std::cell::RefCell<Vec<Vec<crate::StateSummary>>>>);
    impl SummaryLog {
        fn record(&self, view: &EngineView<'_>) {
            let all = (0..view.alive.len() as u32).map(|h| view.summary(HostId(h)));
            self.0.borrow_mut().push(all.collect());
        }
    }
    impl ChurnSource for SummaryLog {
        fn next_events(&mut self, _: Time, view: &EngineView<'_>, _: &mut Vec<ChurnEvent>) {
            self.record(view);
        }
        fn next_poll(&self, now: Time) -> Option<Time> {
            (now < Time(8)).then(|| now + 1)
        }
    }
    impl OverlayDriver for SummaryLog {
        fn next_events(&mut self, _: Time, view: &EngineView<'_>, _: &mut Vec<OverlayEvent>) {
            self.record(view);
        }
        fn next_poll(&self, now: Time) -> Option<Time> {
            (now < Time(8)).then(|| now + 1)
        }
    }

    /// The summaries a [`SummaryLog`] records over five `Ticking` hosts
    /// where h2 fails at t = 4 and h3 is dead from the start.
    fn summary_log(as_overlay: bool) -> Vec<Vec<crate::StateSummary>> {
        let log = std::rc::Rc::default();
        let churn = ChurnPlan::none()
            .with_failure(Time(4), HostId(2))
            .with_initially_dead(HostId(3));
        let builder = SimBuilder::new(special::cycle(5)).churn(churn);
        let source = SummaryLog(std::rc::Rc::clone(&log));
        let builder = if as_overlay {
            builder.overlay(source)
        } else {
            builder.dynamic_churn(source)
        };
        builder
            .build(|h| Ticking(false, 10 * h.0))
            .run_until(Time(10));
        log.take()
    }

    #[test]
    fn dead_hosts_report_the_summary_they_died_with() {
        let log = summary_log(false);
        assert_eq!(log.len(), 9);
        let summary = |active, w| crate::StateSummary {
            active,
            sketch_weight: Some(w),
        };
        // A poll at t runs before that tick's timers: by then a live host
        // has fired t − 1 of them.
        assert_eq!(log[8][0], summary(true, 7.0));
        assert_eq!(log[3][2], summary(true, 22.0));
        // h2 fails at t = 4 before its timer, at 23, and shows that at
        // every later poll; h3 never starts and shows its initial state.
        for (t, all) in log.iter().enumerate() {
            if t >= 4 {
                assert_eq!(all[2], summary(true, 23.0), "t = {t}");
            }
            assert_eq!(all[3], summary(false, 30.0), "t = {t}");
        }
    }

    #[test]
    fn overlay_drivers_read_the_summaries_churn_sources_do() {
        assert_eq!(summary_log(true), summary_log(false));
    }

    #[test]
    fn dynamic_source_kills_block_same_tick_deliveries() {
        // A host killed by a churn-source poll at t misses messages
        // delivered at t — same semantics as a static failure.
        struct KillAt(Time, HostId);
        impl crate::ChurnSource for KillAt {
            fn next_events(
                &mut self,
                now: Time,
                _: &crate::EngineView<'_>,
                out: &mut Vec<crate::ChurnEvent>,
            ) {
                if now == self.0 {
                    out.push(crate::ChurnEvent::Fail(self.1));
                }
            }
            fn next_poll(&self, now: Time) -> Option<Time> {
                (now < self.0).then_some(self.0)
            }
        }
        // Flood along a chain: h2 dies exactly when the flood (sent at
        // t=1 by h1) would arrive at t=2.
        let mut sim = SimBuilder::new(special::chain(5))
            .dynamic_churn(KillAt(Time(2), HostId(2)))
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_until(Time(30));
        assert_eq!(sim.logic(HostId(1)).seen_at, Some(Time(1)));
        assert_eq!(sim.logic(HostId(2)).seen_at, None);
        assert_eq!(sim.logic(HostId(3)).seen_at, None);
    }

    /// The tentpole equivalence bar at the engine level: across random
    /// churn plans (and an optional partition), a simulation driven by
    /// the bucketed calendar queue produces the *identical* trace,
    /// metrics and final state as one driven by the pre-refactor
    /// `BinaryHeap` oracle.
    mod heap_oracle_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn arb_churn(n: u32) -> impl Strategy<Value = ChurnPlan> {
            (
                prop::collection::vec((0u64..30, 1..n), 0..10),
                prop::collection::vec((0u64..30, 1..n), 0..10),
            )
                .prop_map(|(fails, joins)| {
                    let mut plan = ChurnPlan::none();
                    for (t, h) in fails {
                        plan = plan.with_failure(Time(t), HostId(h));
                    }
                    for (t, h) in joins {
                        plan = plan.with_join(Time(t), HostId(h));
                    }
                    plan
                })
        }

        #[derive(Debug, PartialEq)]
        struct Fingerprint {
            trace: Vec<TraceEvent>,
            seen: Vec<Option<Time>>,
            alive: Vec<bool>,
            messages: u64,
            processed: u64,
            chain: u32,
            dispatched: u64,
            hist: Vec<u64>,
            last_active: Option<u64>,
        }

        fn run(n: u32, plan: &ChurnPlan, cut: bool, heap: bool) -> Fingerprint {
            let graph = pov_topology::generators::special::cycle(n as usize);
            let mut b = SimBuilder::new(graph).churn(plan.clone()).seed(7);
            if cut {
                let sides = (0..n).map(|i| u8::from(i >= n / 2)).collect();
                b = b.partition(PartitionPlan::new(sides).window(Time(3), Time(11)));
            }
            if heap {
                b = b.heap_queue_oracle();
            }
            let mut sim = b.build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
            sim.run_until(Time(60));
            Fingerprint {
                trace: sim.trace().events.clone(),
                seen: (0..n).map(|h| sim.logic(HostId(h)).seen_at).collect(),
                alive: (0..n).map(|h| sim.is_alive(HostId(h))).collect(),
                messages: sim.metrics().messages_sent,
                processed: sim.metrics().total_processed(),
                chain: sim.metrics().longest_chain,
                dispatched: sim.metrics().events_dispatched,
                hist: sim.metrics().computation_histogram(),
                last_active: sim.metrics().last_active_tick(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn identical_trace_and_metrics(
                (n, plan, cut) in (4u32..24).prop_flat_map(|n| {
                    (Just(n), arb_churn(n), 0u8..2)
                }),
            ) {
                let bucket = run(n, &plan, cut == 1, false);
                let heap = run(n, &plan, cut == 1, true);
                prop_assert_eq!(bucket, heap);
            }
        }
    }

    /// A sink that records everything — the test double for the
    /// telemetry invariants.
    #[derive(Default)]
    struct Recorder {
        started: Option<usize>,
        ticks: Vec<TickSample>,
        summaries: Vec<(Time, u32, u64)>,
        every: Option<u64>,
    }

    impl TelemetrySink for Recorder {
        fn on_run_start(&mut self, num_hosts: usize) {
            self.started = Some(num_hosts);
        }
        fn on_tick(&mut self, sample: &TickSample) {
            self.ticks.push(*sample);
        }
        fn summary_every(&self) -> Option<u64> {
            self.every
        }
        fn on_summary(&mut self, at: Time, active: u32, sketch_mass: f64) {
            self.summaries.push((at, active, sketch_mass.to_bits()));
        }
    }

    #[test]
    fn telemetry_sink_does_not_perturb_the_run() {
        // The "no behavioural feedback" invariant: identical trace,
        // metrics and per-host state with and without a sink attached.
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(3))
            .with_join(Time(6), HostId(3));
        let run = |attach: bool| {
            let mut rec = Recorder::default();
            let b = SimBuilder::new(special::cycle(8))
                .churn(churn.clone())
                .seed(11);
            let b = if attach { b.telemetry(&mut rec) } else { b };
            let mut sim = b.build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
            sim.run_until(Time(40));
            (
                sim.trace().events.clone(),
                sim.metrics().messages_sent,
                sim.metrics().total_processed(),
                sim.metrics().events_dispatched,
                (0..8u32)
                    .map(|h| sim.logic(HostId(h)).seen_at)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn telemetry_samples_account_for_every_event() {
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(3))
            .with_join(Time(6), HostId(3));
        let mut rec = Recorder::default();
        let mut sim = SimBuilder::new(special::cycle(8))
            .churn(churn)
            .telemetry(&mut rec)
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_until(Time(40));
        let dispatched = sim.metrics().events_dispatched;
        let sent = sim.metrics().messages_sent;
        let processed = sim.metrics().total_processed();
        drop(sim);
        assert_eq!(rec.started, Some(8));
        // Every dispatched event, sent message and processed delivery
        // lands in exactly one tick sample.
        assert_eq!(
            rec.ticks.iter().map(|s| s.dispatched).sum::<u64>(),
            dispatched
        );
        assert_eq!(rec.ticks.iter().map(|s| s.sent).sum::<u64>(), sent);
        assert_eq!(
            rec.ticks.iter().map(|s| s.delivered).sum::<u64>(),
            processed
        );
        assert_eq!(rec.ticks.iter().map(|s| s.fails).sum::<u64>(), 1);
        assert_eq!(rec.ticks.iter().map(|s| s.joins).sum::<u64>(), 1);
        // Samples arrive in strictly increasing tick order, the frontier
        // never exceeds deliveries, and the alive count tracks churn.
        for w in rec.ticks.windows(2) {
            assert!(w[0].tick < w[1].tick);
        }
        for s in &rec.ticks {
            assert!(u64::from(s.frontier) <= s.delivered);
            let expected = if (2..6).contains(&s.tick) { 7 } else { 8 };
            assert_eq!(s.alive, expected, "tick {}", s.tick);
        }
        // The final sample drains the queue.
        assert_eq!(rec.ticks.last().unwrap().queue_depth, 0);
    }

    #[test]
    fn telemetry_summary_sampling_observes_protocol_state() {
        use crate::dynamic::StateSummary;

        #[derive(Debug)]
        struct Weighted(HostId);
        impl NodeLogic for Weighted {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                // Keep ticks active so flushes happen.
                if ctx.now() < Time(10) {
                    ctx.set_timer(1, 0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u32) {
                if ctx.now() < Time(10) {
                    ctx.set_timer(1, 0);
                }
            }
            fn summary(&self) -> StateSummary {
                StateSummary {
                    active: true,
                    sketch_weight: Some(f64::from(self.0 .0)),
                }
            }
        }
        let churn = ChurnPlan::none().with_failure(Time(4), HostId(3));
        let mut rec = Recorder {
            every: Some(4),
            ..Recorder::default()
        };
        let mut sim = SimBuilder::new(special::cycle(4))
            .churn(churn)
            .telemetry(&mut rec)
            .build(Weighted);
        sim.run_until(Time(20));
        drop(sim);
        assert!(!rec.summaries.is_empty());
        // First sample at t=0: all four alive, mass 0+1+2+3.
        let (at, active, mass) = rec.summaries[0];
        assert_eq!(at, Time(0));
        assert_eq!(active, 4);
        assert_eq!(f64::from_bits(mass), 6.0);
        // After the failure at t=4, host 3's weight is gone.
        let late = rec
            .summaries
            .iter()
            .find(|&&(at, _, _)| at > Time(4))
            .expect("a post-failure summary sample");
        assert_eq!(late.1, 3);
        assert_eq!(f64::from_bits(late.2), 3.0);
    }

    /// Scripted overlay driver: applies the given mutations at their
    /// ticks, polling every tick through the last scripted one.
    struct Scripted {
        /// (tick, mutation) pairs; any order, applied in script order
        /// within a tick.
        script: Vec<(u64, OverlayEvent)>,
    }

    impl OverlayDriver for Scripted {
        fn next_events(&mut self, now: Time, _: &EngineView<'_>, out: &mut Vec<OverlayEvent>) {
            out.extend(
                self.script
                    .iter()
                    .filter(|&&(t, _)| t == now.ticks())
                    .map(|&(_, ev)| ev),
            );
        }
        fn next_poll(&self, now: Time) -> Option<Time> {
            self.script
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t > now.ticks())
                .min()
                .map(Time)
        }
    }

    #[test]
    fn overlay_noop_driver_does_not_perturb_the_run() {
        // The zero-feedback bar for the overlay hook, mirroring the
        // telemetry one: a driver that never mutates an edge leaves the
        // trace, metrics and per-host state identical to a run without
        // any driver installed.
        struct Idle;
        impl OverlayDriver for Idle {
            fn next_events(&mut self, _: Time, _: &EngineView<'_>, _: &mut Vec<OverlayEvent>) {}
            fn next_poll(&self, now: Time) -> Option<Time> {
                (now < Time(30)).then(|| now + 1)
            }
        }
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(3))
            .with_join(Time(6), HostId(3));
        let run = |attach: bool| {
            let b = SimBuilder::new(special::cycle(8))
                .churn(churn.clone())
                .seed(5);
            let b = if attach { b.overlay(Idle) } else { b };
            let mut sim = b.build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
            sim.run_until(Time(40));
            (
                sim.trace().events.clone(),
                sim.metrics().messages_sent,
                sim.metrics().total_processed(),
                sim.metrics().longest_chain,
                (0..8u32)
                    .map(|h| sim.logic(HostId(h)).seen_at)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn overlay_mutations_rewire_routing() {
        // Chain 0-1-2-3. At t=0 (after on_start broadcasts, before any
        // delivery) the driver splices in (1,3) and severs (2,3): the
        // flood reaches h3 at t=2 through the new edge, and h2's
        // forward no longer crosses the removed one.
        let script = vec![
            (0, OverlayEvent::AddEdge(HostId(1), HostId(3))),
            (0, OverlayEvent::RemoveEdge(HostId(2), HostId(3))),
        ];
        let mut sim = SimBuilder::new(special::chain(4))
            .overlay(Scripted { script })
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_to_quiescence(1_000);
        assert_eq!(sim.logic(HostId(2)).seen_at, Some(Time(2)));
        assert_eq!(sim.logic(HostId(3)).seen_at, Some(Time(2)), "via (1,3)");
        let v = sim.overlay_view().expect("driver installed");
        assert!(v.has_edge(HostId(1), HostId(3)));
        assert!(!v.has_edge(HostId(2), HostId(3)));
        // Base CSR untouched.
        assert!(sim.graph().has_edge(HostId(2), HostId(3)));
        let stats = sim.overlay_stats().expect("driver installed");
        assert_eq!((stats.edges_added, stats.edges_removed), (1, 1));
    }

    #[test]
    fn overlay_send_to_stale_contact_is_lost_not_fatal() {
        // A protocol that cached a contact before the overlay tore the
        // link down: the unicast is dropped on the floor (still costing
        // one message), mirroring a send to a crashed host — it must
        // not trip the static-topology non-neighbour assertion.
        #[derive(Debug)]
        struct Stale {
            me: HostId,
            got: bool,
        }
        impl NodeLogic for Stale {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if self.me == HostId(0) {
                    ctx.set_timer(2, 0);
                }
            }
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {
                self.got = true;
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: u32) {
                ctx.send(HostId(1), ());
            }
        }
        let script = vec![(1, OverlayEvent::RemoveEdge(HostId(0), HostId(1)))];
        let mut sim = SimBuilder::new(special::chain(2))
            .overlay(Scripted { script })
            .build(|h| Stale { me: h, got: false });
        sim.run_to_quiescence(1_000);
        assert!(!sim.logic(HostId(1)).got, "torn-down link delivers nothing");
        assert_eq!(sim.metrics().messages_sent, 1, "the sender still paid");
    }

    #[test]
    fn overlay_delta_compacts_back_into_csr() {
        // Enough mutations to cross the compaction threshold mid-run;
        // adjacency reads stay correct and the delta ends small.
        let n = 12u32;
        let mut script = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                script.push((
                    u64::from(a) + 1,
                    OverlayEvent::AddEdge(HostId(a), HostId(b)),
                ));
            }
        }
        let mut sim = SimBuilder::new(special::cycle(n as usize))
            .overlay(Scripted { script })
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_until(Time(n as u64 + 2));
        let v = sim.overlay_view().unwrap();
        assert_eq!(v.num_edges(), (n as usize) * (n as usize - 1) / 2);
        assert!(
            v.delta_len() < compact_threshold(n as usize),
            "delta folded back into the CSR"
        );
        for a in 0..n {
            assert_eq!(v.degree(HostId(a)), n as usize - 1);
        }
    }

    #[test]
    fn churn_source_sees_overlay_current_neighbors() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // A churn source that snapshots every host's neighbour list at
        // each poll — through the overlay-aware EngineView methods.
        type AdjLog = Rc<RefCell<Vec<(u64, Vec<Vec<HostId>>)>>>;
        struct Snapshot {
            until: u64,
            log: AdjLog,
        }
        impl ChurnSource for Snapshot {
            fn next_events(&mut self, now: Time, view: &EngineView<'_>, _: &mut Vec<ChurnEvent>) {
                let adj = (0..view.alive.len() as u32)
                    .map(|h| view.neighbors(HostId(h)).to_vec())
                    .collect();
                self.log.borrow_mut().push((now.ticks(), adj));
            }
            fn next_poll(&self, now: Time) -> Option<Time> {
                (now.ticks() < self.until).then(|| now + 1)
            }
        }

        let script = vec![
            (1, OverlayEvent::AddEdge(HostId(0), HostId(3))),
            (2, OverlayEvent::RemoveEdge(HostId(1), HostId(2))),
            (4, OverlayEvent::AddEdge(HostId(2), HostId(4))),
        ];
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(special::chain(5))
            .overlay(Scripted {
                script: script.clone(),
            })
            .dynamic_churn(Snapshot {
                until: 6,
                log: Rc::clone(&log),
            })
            .build(|_| Flood {
                origin: false,
                seen_at: None,
            });
        sim.run_until(Time(10));

        // Replay the script into a stand-alone view: within a tick the
        // churn poll (rank 2) runs before the overlay poll (rank 3), so
        // at tick t the source must observe exactly the mutations of
        // ticks < t — the overlay's current adjacency, never the stale
        // base CSR once mutations exist.
        let mut expect = OverlayView::new(special::chain(5));
        for (tick, adj_at_tick) in log.borrow().iter() {
            for &(t, ev) in &script {
                if t >= *tick {
                    continue;
                }
                // Idempotent re-apply across log entries is harmless.
                match ev {
                    OverlayEvent::AddEdge(a, b) => expect.add_edge(a, b),
                    OverlayEvent::RemoveEdge(a, b) => expect.remove_edge(a, b),
                };
            }
            let want: Vec<Vec<HostId>> = (0..5u32)
                .map(|h| expect.neighbors(HostId(h)).to_vec())
                .collect();
            assert_eq!(adj_at_tick, &want, "tick {tick}");
        }
    }

    #[test]
    fn overlay_telemetry_counts_view_churn() {
        let script = vec![
            (1, OverlayEvent::AddEdge(HostId(0), HostId(2))),
            (1, OverlayEvent::AddEdge(HostId(0), HostId(2))), // dup: no-op
            (3, OverlayEvent::RemoveEdge(HostId(0), HostId(1))),
        ];
        let mut rec = Recorder::default();
        let mut sim = SimBuilder::new(special::chain(3))
            .overlay(Scripted { script })
            .telemetry(&mut rec)
            .build(|h| Flood {
                origin: h == HostId(0),
                seen_at: None,
            });
        sim.run_until(Time(10));
        drop(sim);
        assert_eq!(rec.ticks.iter().map(|s| s.overlay_added).sum::<u64>(), 1);
        assert_eq!(rec.ticks.iter().map(|s| s.overlay_removed).sum::<u64>(), 1);
    }

    #[test]
    fn num_alive_reflects_churn() {
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(0))
            .with_failure(Time(4), HostId(1));
        let mut sim = SimBuilder::new(special::chain(3))
            .churn(churn)
            .build(|_| Flood {
                origin: false,
                seen_at: None,
            });
        sim.run_to_quiescence(100);
        assert_eq!(sim.num_alive(), 1);
        assert!(!sim.is_alive(HostId(0)));
        assert!(sim.is_alive(HostId(2)));
    }

    #[test]
    fn into_record_moves_out_what_the_accessors_report() {
        // A flood whose hosts show their id as sketch weight once they
        // hear it, so the adversary's kills depend on the run.
        #[derive(Debug)]
        struct Marked(Flood, HostId);
        impl NodeLogic for Marked {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.0.on_start(ctx);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: HostId, msg: ()) {
                self.0.on_message(ctx, from, msg);
            }
            fn summary(&self) -> crate::dynamic::StateSummary {
                crate::dynamic::StateSummary {
                    active: self.0.seen_at.is_some(),
                    sketch_weight: self.0.seen_at.map(|_| f64::from(self.1 .0)),
                }
            }
        }
        let n = 12u32;
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(3))
            .with_failure(Time(4), HostId(8))
            .with_join(Time(6), HostId(3));
        let sides = (0..n).map(|i| u8::from(i >= n / 2)).collect();
        let mut sim = SimBuilder::new(special::cycle(n as usize))
            .churn(churn)
            .partition(PartitionPlan::new(sides).window(Time(1), Time(5)))
            .dynamic_churn(crate::SketchAdversary::new(
                1,
                2,
                Time(2),
                Time(4),
                HostId(0),
            ))
            .build(|h| {
                let flood = Flood {
                    origin: h == HostId(0),
                    seen_at: None,
                };
                Marked(flood, h)
            });
        sim.run_until(Time(30));
        let metrics = format!("{:?}", sim.metrics());
        let trace = format!("{:?}", sim.trace());
        let alive: Vec<bool> = (0..n).map(|h| sim.is_alive(HostId(h))).collect();
        // Scripted and dynamic membership changes both reached the trace.
        assert!(sim.trace().events.len() > 3, "{trace}");
        assert!(alive.contains(&false) && alive.contains(&true));
        let (moved_metrics, moved_trace, moved_alive) = sim.into_record();
        assert_eq!(format!("{moved_metrics:?}"), metrics);
        assert_eq!(format!("{moved_trace:?}"), trace);
        assert_eq!(moved_alive, alive);
    }

    /// The fanout equivalence bar's protocol: relays a token a few hops
    /// with `broadcast_except(Some(from))`, folds deliveries into an
    /// order-sensitive accumulator, and batches at tick end. Origins
    /// broadcast at start; under point-to-point the isolated host 9
    /// also reaches host 4 over the underlay, so 4's relay skips a
    /// non-neighbour.
    #[derive(Clone, Debug, PartialEq)]
    struct Relay {
        hops: u32,
        acc: u64,
    }

    impl NodeLogic for Relay {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if [0, 6, 7, 9].contains(&ctx.me().0) {
                ctx.broadcast(u64::from(ctx.me().0));
            }
            if ctx.me() == HostId(9) && ctx.medium() == Medium::PointToPoint {
                ctx.send_direct(HostId(4), 99);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: HostId, msg: u64) {
            self.acc = self
                .acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(msg ^ u64::from(from.0) << 8);
            if self.hops < 3 {
                self.hops += 1;
                ctx.broadcast_except(Some(from), msg.wrapping_mul(3) + 1);
                ctx.set_timer_at_tick_end(self.hops);
            }
        }

        fn on_timer(&mut self, _: &mut Ctx<'_, u64>, key: u32) {
            self.acc = self.acc.rotate_left(5) ^ u64::from(key);
        }
    }

    /// A 6-cycle with the chord 0–3, a pendant 6 on host 2, a separate
    /// edge 7–8, and an isolated host 9: degrees 0 through 4. With
    /// `hub`, host 10 also links host 1 and the 34 leaves 11–44: a row
    /// too long for a slot mask.
    fn relay_graph(hub: bool) -> Graph {
        let n = if hub { 45 } else { 10 };
        let mut b = pov_topology::GraphBuilder::with_hosts(n);
        for (a, c) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 3),
            (2, 6),
            (7, 8),
        ] {
            b.add_edge(HostId(a), HostId(c));
        }
        if hub {
            for leaf in std::iter::once(1).chain(11..45) {
                b.add_edge(HostId(10), HostId(leaf));
            }
        }
        b.build()
    }

    /// Run `make`'s logic on `graph` under both media, through `churn`
    /// and `cut`, once with fanouts, once with one delivery per target
    /// and once with fanouts and prefetching, and assert the three runs
    /// indistinguishable: metrics, trace, per-host state and every tick
    /// sample (queue depth included).
    fn assert_fanouts_invisible<L>(
        graph: &Graph,
        churn: &ChurnPlan,
        cut: &PartitionPlan,
        make: impl Fn(HostId) -> L,
    ) where
        L: NodeLogic + Clone + PartialEq + std::fmt::Debug,
    {
        for medium in [Medium::PointToPoint, Medium::Radio] {
            let run = |fanout: bool, prefetch: bool| {
                let mut rec = Recorder::default();
                let mut sim = SimBuilder::over(graph)
                    .medium(medium)
                    .churn(churn.clone())
                    .partition(cut.clone())
                    .telemetry(&mut rec)
                    .build(&make);
                sim.fanout = fanout;
                sim.prefetch = prefetch;
                sim.start();
                let pending = sim.pending_events();
                // On a fanout run some start-up send takes fewer
                // entries than it has targets.
                assert_eq!(sim.queue.entries() < pending, fanout, "{medium:?}");
                sim.run_to_quiescence(10_000);
                let metrics = sim.metrics().clone();
                let trace = sim.trace().events.clone();
                let states: Vec<L> = (0..graph.num_hosts() as u32)
                    .map(|i| sim.logic(HostId(i)).clone())
                    .collect();
                drop(sim);
                (metrics, trace, states, rec.ticks)
            };
            let (m, trace, states, ticks) = run(true, false);
            assert!(
                ticks.iter().any(|s| s.dropped > 0),
                "{medium:?}: the cut bit"
            );
            // One delivery per target, and fanouts with the prefetches
            // forced on (a run this small skips them): neither differs.
            for (m0, trace0, states0, ticks0) in [run(false, false), run(true, true)] {
                assert_eq!(m.messages_sent, m0.messages_sent, "{medium:?}");
                assert_eq!(m.sent_per_tick, m0.sent_per_tick, "{medium:?}");
                assert_eq!(m.processed_per_host, m0.processed_per_host, "{medium:?}");
                assert_eq!(m.longest_chain, m0.longest_chain, "{medium:?}");
                assert_eq!(m.timers_fired, m0.timers_fired, "{medium:?}");
                assert_eq!(m.events_dispatched, m0.events_dispatched, "{medium:?}");
                assert_eq!(trace, trace0, "{medium:?}");
                assert_eq!(states, states0, "{medium:?}");
                assert_eq!(ticks, ticks0, "{medium:?}");
            }
        }
    }

    #[test]
    fn fanout_matches_per_target_copies() {
        // One queued fanout per broadcast must be indistinguishable from
        // one delivery per target.
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(4))
            .with_join(Time(4), HostId(4))
            .with_failure(Time(1), HostId(8));
        let sides = (0..10).map(|i| u8::from(i >= 3)).collect();
        let cut = PartitionPlan::new(sides).window(Time(2), Time(3));
        assert_fanouts_invisible(&relay_graph(false), &churn, &cut, |_| Relay {
            hops: 0,
            acc: 0,
        });
    }

    /// The subset-fanout bar's protocol: every send is a
    /// `multicast_where` to the subset of the row its message names —
    /// nobody, one neighbour, all but that one, or all — and `pick`
    /// folds every neighbour it is asked about into an order-sensitive
    /// accumulator. Hosts 0, 2, 7, 9 and the hub 10 start one round each,
    /// one per subset kind; every receipt starts another for a few hops
    /// and batches at tick end.
    #[derive(Clone, Debug, PartialEq)]
    struct Subsets {
        hops: u32,
        acc: u64,
    }

    impl Subsets {
        fn round(&mut self, ctx: &mut Ctx<'_, u64>, msg: u64) {
            let row = ctx.neighbors();
            let one = row.get(msg as usize % row.len().max(1)).copied();
            let acc = &mut self.acc;
            ctx.multicast_where(
                |n| {
                    *acc = acc.rotate_left(7) ^ u64::from(n.0);
                    match msg % 4 {
                        0 => false,
                        1 => Some(n) == one,
                        2 => Some(n) != one,
                        _ => true,
                    }
                },
                msg,
            );
        }
    }

    impl NodeLogic for Subsets {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            // Msg ≡ kind (mod 4): 0 → all but one of 3, 2 → all 3,
            // 7 → its one, 9 → nobody, the hub → all but one of 35.
            let kind = match ctx.me().0 {
                0 => 2,
                2 => 3,
                7 => 1,
                9 => 0,
                10 => 6,
                _ => return,
            };
            self.round(ctx, kind);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: HostId, msg: u64) {
            self.acc = self
                .acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(msg ^ u64::from(from.0) << 8);
            if self.hops < 3 {
                self.hops += 1;
                self.round(ctx, msg.wrapping_mul(3) + u64::from(self.hops));
                ctx.set_timer_at_tick_end(self.hops);
            }
        }

        fn on_timer(&mut self, _: &mut Ctx<'_, u64>, key: u32) {
            self.acc = self.acc.rotate_left(5) ^ u64::from(key);
        }
    }

    #[test]
    fn subset_fanout_matches_per_target_copies() {
        // One queued fanout per `multicast_where` round must be
        // indistinguishable from one delivery per target, for every
        // subset kind, and the hub's row of 35 takes the per-target
        // path on both runs.
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(4))
            .with_join(Time(4), HostId(4))
            .with_failure(Time(1), HostId(8))
            .with_failure(Time(1), HostId(12));
        let sides = (0..45).map(|i| u8::from(i >= 3)).collect();
        let cut = PartitionPlan::new(sides).window(Time(2), Time(3));
        let graph = relay_graph(true);
        assert!(graph.degree(HostId(10)) > MASK_SLOTS);
        assert_fanouts_invisible(&graph, &churn, &cut, |_| Subsets { hops: 0, acc: 0 });
    }

    /// The dispatched-event count of flooding a complete graph, where
    /// every broadcast is a fanout.
    fn complete_flood(max_events: u64) -> u64 {
        let mut sim = flood_sim(special::complete(12), Medium::PointToPoint);
        sim.run_to_quiescence(max_events);
        sim.metrics().events_dispatched
    }

    /// Forwards its first token to the neighbours with higher ids only:
    /// every forward is a subset fanout.
    struct Upward {
        seen: bool,
    }

    impl NodeLogic for Upward {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == HostId(0) {
                self.seen = true;
                ctx.multicast_where(|_| true, ());
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _: HostId, _: ()) {
            if !self.seen {
                self.seen = true;
                let me = ctx.me();
                ctx.multicast_where(|n| n > me, ());
            }
        }
    }

    /// The dispatched-event count of [`Upward`] on a complete graph.
    fn complete_upward(max_events: u64) -> u64 {
        let mut sim = SimBuilder::new(special::complete(12)).build(|_| Upward { seen: false });
        sim.run_to_quiescence(max_events);
        sim.metrics().events_dispatched
    }

    #[test]
    fn quiescence_budget_counts_every_fanout_target() {
        let events = complete_flood(u64::MAX);
        // h0's 11 copies, then 10 from each of the 11 others.
        assert_eq!(events, 11 + 11 * 10);
        assert_eq!(complete_flood(events), events);
        // Subset fanouts: h0's 11 copies, then 11 − i from each h_i.
        let events = complete_upward(u64::MAX);
        assert_eq!(events, 11 + 55);
        assert_eq!(complete_upward(events), events);
        assert!(std::panic::catch_unwind(|| complete_upward(events - 1)).is_err());
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn quiescence_budget_one_short_of_a_fanout_flood_panics() {
        // The flood pops 12 queue entries; its last target is the
        // 121st event.
        complete_flood(11 + 11 * 10 - 1);
    }

    /// A deliberately awkward protocol for the sharding invariance bar:
    /// draws per-event randomness, sets tick-end batching timers and
    /// ordinary delayed timers, and folds message/sender/timer history
    /// into an order-sensitive accumulator.
    #[derive(Debug)]
    struct Churner {
        hops: u32,
        acc: u64,
    }

    impl NodeLogic for Churner {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == HostId(0) {
                ctx.broadcast(1);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: HostId, msg: u64) {
            // Order-sensitive fold: any reordering of deliveries to this
            // host changes the value.
            self.acc = self
                .acc
                .wrapping_mul(0x100000001b3)
                .wrapping_add(msg ^ u64::from(from.0));
            if self.hops < 3 {
                self.hops += 1;
                use rand::Rng;
                let jitter = ctx.rng().gen_range(0..4u64);
                ctx.broadcast_except(Some(from), msg.wrapping_add(jitter));
                ctx.set_timer_at_tick_end(self.hops);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, key: u32) {
            self.acc = self.acc.rotate_left(7) ^ u64::from(key);
            if key == 1 {
                ctx.set_timer(2, 99);
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn sharded_fingerprint(threads: usize) -> (Metrics, Vec<(Time, bool, u32)>, Vec<(u32, u64)>) {
        let n = 24u32;
        let churn = ChurnPlan::none()
            .with_failure(Time(2), HostId(3))
            .with_failure(Time(3), HostId(17))
            .with_join(Time(4), HostId(3));
        let mut sim = SimBuilder::new(special::cycle(n as usize))
            .churn(churn)
            .seed(7)
            .build(|_| Churner { hops: 0, acc: 0 });
        sim.enable_sharded_delivery(threads);
        sim.run_to_quiescence(100_000);
        let trace: Vec<(Time, bool, u32)> = sim
            .trace()
            .events
            .iter()
            .map(|e| match *e {
                TraceEvent::Fail(t, h) => (t, false, h.0),
                TraceEvent::Join(t, h) => (t, true, h.0),
            })
            .collect();
        let states: Vec<(u32, u64)> = (0..n)
            .map(|i| {
                let l = sim.logic(HostId(i));
                (l.hops, l.acc)
            })
            .collect();
        (sim.metrics().clone(), trace, states)
    }

    #[test]
    fn sharded_delivery_thread_count_invariance() {
        // The tentpole determinism bar: metrics, trace and every host's
        // final protocol state are byte-identical for any thread count.
        let (base_metrics, base_trace, base_states) = sharded_fingerprint(1);
        assert!(base_metrics.messages_sent > 0, "workload actually ran");
        assert!(base_metrics.timers_fired > 0, "timers exercised");
        for threads in [2, 3, 8] {
            let (m, trace, states) = sharded_fingerprint(threads);
            assert_eq!(m.messages_sent, base_metrics.messages_sent, "t={threads}");
            assert_eq!(m.sent_per_tick, base_metrics.sent_per_tick, "t={threads}");
            assert_eq!(
                m.processed_per_host, base_metrics.processed_per_host,
                "t={threads}"
            );
            assert_eq!(m.longest_chain, base_metrics.longest_chain, "t={threads}");
            assert_eq!(m.timers_fired, base_metrics.timers_fired, "t={threads}");
            assert_eq!(
                m.events_dispatched, base_metrics.events_dispatched,
                "t={threads}"
            );
            assert_eq!(trace, base_trace, "t={threads}");
            assert_eq!(states, base_states, "t={threads}");
        }
    }

    #[test]
    fn sharded_matches_sequential_for_rng_free_protocols() {
        // Flood never touches Ctx::rng and the default delay model is
        // fixed, so sharded output must equal the sequential engine's
        // exactly — including the dispatch counter (a batch member is
        // one dispatched event either way).
        let run = |shard: Option<usize>| {
            let churn = ChurnPlan::none().with_failure(Time(1), HostId(5));
            let mut sim = SimBuilder::new(special::cycle(16))
                .churn(churn)
                .medium(Medium::Radio)
                .build(|h| Flood {
                    origin: h == HostId(0),
                    seen_at: None,
                });
            if let Some(t) = shard {
                sim.enable_sharded_delivery(t);
            }
            sim.run_to_quiescence(10_000);
            let seen: Vec<Option<Time>> = (0..16).map(|i| sim.logic(HostId(i)).seen_at).collect();
            (sim.metrics().clone(), seen)
        };
        let (seq_m, seq_seen) = run(None);
        for threads in [1, 4] {
            let (m, seen) = run(Some(threads));
            assert_eq!(m.messages_sent, seq_m.messages_sent, "t={threads}");
            assert_eq!(m.sent_per_tick, seq_m.sent_per_tick, "t={threads}");
            assert_eq!(
                m.processed_per_host, seq_m.processed_per_host,
                "t={threads}"
            );
            assert_eq!(m.longest_chain, seq_m.longest_chain, "t={threads}");
            assert_eq!(m.events_dispatched, seq_m.events_dispatched, "t={threads}");
            assert_eq!(seen, seq_seen, "t={threads}");
        }
    }

    #[test]
    fn sharded_delivery_respects_partitions_and_telemetry() {
        // Two halves of an 8-cycle severed for ticks 1..=2: sharded
        // runs must agree on drops, and telemetry per-tick aggregates
        // must be thread-count-invariant.
        let sides: Vec<u8> = (0..8u8).map(|i| u8::from(i >= 4)).collect();
        let plan = PartitionPlan::new(sides).window(Time(1), Time(3));
        let run = |threads: usize| {
            let mut rec = Recorder::default();
            let mut sim = SimBuilder::new(special::cycle(8))
                .partition(plan.clone())
                .telemetry(&mut rec)
                .build(|h| Flood {
                    origin: h == HostId(0),
                    seen_at: None,
                });
            sim.enable_sharded_delivery(threads);
            sim.run_to_quiescence(10_000);
            drop(sim);
            rec.ticks
        };
        let base = run(1);
        assert!(
            base.iter().any(|s| s.dropped > 0),
            "partition actually dropped messages"
        );
        for threads in [2, 5] {
            assert_eq!(run(threads), base, "t={threads}");
        }
    }
}
