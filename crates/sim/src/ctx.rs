//! The capability handle a host's logic receives during a callback.

use crate::delay::DelayModel;
use crate::engine::Medium;
use crate::event::{EventQueue, Payload, MASK_SLOTS, NO_SKIP};
use crate::metrics::Metrics;
use crate::overlay::TopoRef;
use crate::Time;
use pov_topology::HostId;
use rand::rngs::SmallRng;

/// Where a `Ctx` sends the events a handler schedules. The sequential
/// engine writes straight into the global queue; a sharded-delivery
/// worker appends to its shard's private buffer (tagged with the
/// triggering event's within-batch origin index) and the engine merges
/// the buffers back into the queue in global origin order afterwards —
/// reproducing exactly the push sequence sequential processing would
/// have produced.
pub(crate) enum EventSink<'a, M> {
    /// Sequential path: push straight into the event queue.
    Direct(&'a mut EventQueue<M>),
    /// Sharded path: buffer `(origin, at, payload)` for the post-batch
    /// deterministic merge.
    Shard {
        buf: &'a mut Vec<(u32, Time, Payload<M>)>,
        origin: u32,
    },
}

impl<M> EventSink<'_, M> {
    #[inline]
    pub(crate) fn push(&mut self, at: Time, payload: Payload<M>) {
        match self {
            EventSink::Direct(q) => q.push(at, payload),
            EventSink::Shard { buf, origin } => buf.push((*origin, at, payload)),
        }
    }

    /// Queue a [`Payload::Fanout`] to `count` hosts; see
    /// `EventQueue::push_fanout`.
    #[inline]
    fn push_fanout(&mut self, at: Time, payload: Payload<M>, count: usize) {
        match self {
            EventSink::Direct(q) => q.push_fanout(at, payload, count),
            EventSink::Shard { .. } => unreachable!("sharded delivery queues no fanouts"),
        }
    }
}

/// Where a `Ctx` records message costs. Handlers only ever record
/// *sends*, and every send in a delivery batch happens at the same
/// instant, so the sharded side is a single counter merged into
/// [`Metrics`] (messages_sent + sent_per_tick) after the batch.
pub(crate) enum CostSink<'a> {
    /// Sequential path: record against the run's metrics directly.
    Direct(&'a mut Metrics),
    /// Sharded path: count sends; the engine folds them in post-batch.
    Shard { sends: &'a mut u64 },
}

impl CostSink<'_> {
    #[inline]
    pub(crate) fn record_send(&mut self, at: Time) {
        match self {
            CostSink::Direct(m) => m.record_send(at),
            CostSink::Shard { sends } => {
                let _ = at; // all batch sends share one instant
                **sends += 1;
            }
        }
    }

    /// Record `n` sends at `at` in one step.
    #[inline]
    fn record_sends(&mut self, at: Time, n: u64) {
        match self {
            CostSink::Direct(m) => m.record_sends(at, n),
            CostSink::Shard { sends } => {
                let _ = at; // all batch sends share one instant
                **sends += n;
            }
        }
    }
}

/// Everything a host may do while handling an event: inspect its
/// current neighbourhood, send messages, set timers and draw
/// randomness.
///
/// Deliberately *not* exposed: other hosts' state, liveness of
/// neighbours (hosts cannot observe failures instantaneously in the
/// relaxed asynchronous model), or global time-travel.
pub struct Ctx<'a, M> {
    pub(crate) now: Time,
    pub(crate) me: HostId,
    pub(crate) topo: TopoRef<'a>,
    pub(crate) queue: EventSink<'a, M>,
    pub(crate) metrics: CostSink<'a>,
    pub(crate) medium: Medium,
    pub(crate) delay: DelayModel,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) chain_depth: u32,
    pub(crate) in_timer: bool,
    /// Whether a broadcast or a [`Ctx::multicast_where`] may queue as
    /// one [`Payload::Fanout`]: set by the engine when every copy is
    /// certain to land at one instant on a neighbour list that cannot
    /// change — a static CSR topology, a fixed delay (which draws no
    /// randomness) and sequential delivery.
    pub(crate) fanout: bool,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The host this callback runs on.
    #[inline]
    pub fn me(&self) -> HostId {
        self.me
    }

    /// Neighbour list `N(me)` from the topology — the base graph's, or
    /// the maintained overlay's current merged adjacency when an
    /// [`OverlayDriver`](crate::OverlayDriver) is installed. A
    /// neighbour may have failed; sends to it are silently lost,
    /// exactly as a message to a crashed host would be.
    #[inline]
    pub fn neighbors(&self) -> &'a [HostId] {
        self.topo.neighbors(self.me)
    }

    /// Degree of this host.
    #[inline]
    pub fn degree(&self) -> usize {
        self.topo.degree(self.me)
    }

    /// Send `msg` to a single neighbour. Costs one message in both media
    /// (§3.1: sensors address unicast messages by MAC id; non-recipients
    /// drop them in hardware at no processing cost).
    ///
    /// Under a maintained overlay the target may be a *stale contact*:
    /// a host whose link the overlay has torn down since the sender
    /// learned of it (an eviction, a shuffle shed). Such a send is lost
    /// on the floor — the sender still pays the message cost, exactly
    /// like a send to a crashed host. On a static topology a
    /// non-neighbour target is a protocol bug and asserts in debug
    /// builds.
    pub fn send(&mut self, to: HostId, msg: M) {
        if let TopoRef::Overlay(view) = self.topo {
            if !view.has_edge(self.me, to) {
                self.metrics.record_send(self.now);
                return;
            }
        }
        debug_assert!(
            self.topo.has_edge(self.me, to),
            "{:?} tried to send to non-neighbor {:?}",
            self.me,
            to
        );
        self.metrics.record_send(self.now);
        let d = self.delay.sample(self.rng);
        self.queue.push(
            self.now + d,
            Payload::Deliver {
                to,
                from: self.me,
                msg,
                depth: self.chain_depth + 1,
            },
        );
    }

    /// Send `msg` to every neighbour. Under [`Medium::Radio`] this is a
    /// single transmission (one message of communication cost) heard by
    /// all neighbours (§5.3); under [`Medium::PointToPoint`] it is one
    /// message per neighbour.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcast_except(None, msg);
    }

    /// Send `msg` to every neighbour except `skip` (the common flooding
    /// idiom: do not echo a message straight back to whoever sent it).
    ///
    /// Radio caveat: a radio transmission physically reaches *all*
    /// neighbours — there is no way to exclude one — so under
    /// [`Medium::Radio`] the excluded neighbour still receives the
    /// message, and the cost is one message either way.
    pub fn broadcast_except(&mut self, skip: Option<HostId>, msg: M) {
        if self.fanout {
            self.fan_out(skip, msg);
            return;
        }
        match self.medium {
            Medium::Radio => {
                self.metrics.record_send(self.now);
                let d = self.delay.sample(self.rng);
                for &n in self.topo.neighbors(self.me) {
                    self.queue.push(
                        self.now + d,
                        Payload::Deliver {
                            to: n,
                            from: self.me,
                            msg: msg.clone(),
                            depth: self.chain_depth + 1,
                        },
                    );
                }
            }
            Medium::PointToPoint => {
                let neighbors = self.topo.neighbors(self.me);
                for &n in neighbors {
                    if Some(n) == skip {
                        continue;
                    }
                    self.metrics.record_send(self.now);
                    let d = self.delay.sample(self.rng);
                    self.queue.push(
                        self.now + d,
                        Payload::Deliver {
                            to: n,
                            from: self.me,
                            msg: msg.clone(),
                            depth: self.chain_depth + 1,
                        },
                    );
                }
            }
        }
    }

    /// [`Ctx::broadcast_except`] as one queue entry for all its copies:
    /// the same sends charged now, the same deliveries at the same
    /// instant in the same CSR order, expanded when they fall due.
    fn fan_out(&mut self, skip: Option<HostId>, msg: M) {
        let neighbors = self.topo.neighbors(self.me);
        let skip = skip.filter(|_| self.medium == Medium::PointToPoint);
        let (targets, count) = if neighbors.len() <= MASK_SLOTS {
            let mask = slot_mask(neighbors, |n| Some(n) != skip);
            (mask, mask.count_ones() as usize)
        } else {
            match skip {
                Some(s) if neighbors.contains(&s) => (s.0, neighbors.len() - 1),
                _ => (NO_SKIP, neighbors.len()),
            }
        };
        let sends = match self.medium {
            Medium::PointToPoint => count as u64,
            Medium::Radio => 1,
        };
        self.queue_fanout(targets, count, sends, msg);
    }

    /// Charge `sends`, then queue `msg` to the `count` neighbours that
    /// `targets` selects (see [`Payload::Fanout`]): nothing for none, a
    /// plain delivery for one, one fanout entry for more.
    fn queue_fanout(&mut self, targets: u32, count: usize, sends: u64, msg: M) {
        self.metrics.record_sends(self.now, sends);
        let at = self.now + self.delay.sample(self.rng);
        let (from, depth) = (self.me, self.chain_depth + 1);
        match count {
            0 => {}
            1 => {
                // A row longer than `MASK_SLOTS` has more than one target.
                let to = self.topo.neighbors(self.me)[targets.trailing_zeros() as usize];
                self.queue.push(
                    at,
                    Payload::Deliver {
                        to,
                        from,
                        msg,
                        depth,
                    },
                );
            }
            _ => self.queue.push_fanout(
                at,
                Payload::Fanout {
                    from,
                    targets,
                    msg,
                    depth,
                },
                count,
            ),
        }
    }

    /// Send `msg` to several neighbours at once. Under
    /// [`Medium::Radio`] this is a single MAC-multicast transmission —
    /// one message of communication cost, received (and processed) only
    /// by the addressed neighbours, everyone else drops it in hardware
    /// (§3.1). Under [`Medium::PointToPoint`] it is one message per
    /// target. This is how a DAG host reports to its `k` parents for the
    /// price of one radio message (§4.4 / Considine et al.).
    pub fn multicast(&mut self, targets: &[HostId], msg: M) {
        if targets.is_empty() {
            return;
        }
        match self.medium {
            Medium::Radio => {
                self.metrics.record_send(self.now);
                let d = self.delay.sample(self.rng);
                for &to in targets {
                    // Same stale-contact rule as `send`: a target the
                    // overlay has unlinked is simply out of radio range.
                    if let TopoRef::Overlay(view) = self.topo {
                        if !view.has_edge(self.me, to) {
                            continue;
                        }
                    }
                    debug_assert!(self.topo.has_edge(self.me, to));
                    self.queue.push(
                        self.now + d,
                        Payload::Deliver {
                            to,
                            from: self.me,
                            msg: msg.clone(),
                            depth: self.chain_depth + 1,
                        },
                    );
                }
            }
            Medium::PointToPoint => {
                for &to in targets {
                    self.send(to, msg.clone());
                }
            }
        }
    }

    /// [`Ctx::multicast`] to the neighbours `pick` selects: `pick` sees
    /// every neighbour once, in [`Ctx::neighbors`] order, and the copies
    /// are delivered in that order. Costs what `multicast` to the picked
    /// neighbours costs. This is how a WILDFIRE host sends one update
    /// round to every neighbour not yet known to hold its partial
    /// (Example 5.1).
    ///
    /// Over a static topology with a fixed delay, a host of at most 32
    /// neighbours queues the whole round as one event-queue entry.
    pub fn multicast_where(&mut self, mut pick: impl FnMut(HostId) -> bool, msg: M) {
        let neighbors = self.topo.neighbors(self.me);
        if self.fanout && neighbors.len() <= MASK_SLOTS {
            let targets = slot_mask(neighbors, pick);
            let count = targets.count_ones() as usize;
            let sends = match self.medium {
                Medium::PointToPoint => count as u64,
                Medium::Radio => u64::from(count > 0),
            };
            self.queue_fanout(targets, count, sends, msg);
            return;
        }
        match self.medium {
            Medium::PointToPoint => {
                for &to in neighbors {
                    if pick(to) {
                        self.send(to, msg.clone());
                    }
                }
            }
            Medium::Radio => {
                let targets: Vec<HostId> = neighbors.iter().copied().filter(|&n| pick(n)).collect();
                self.multicast(&targets, msg);
            }
        }
    }

    /// Send `msg` to *any* host over the underlay, bypassing the overlay
    /// topology. P2P overlays sit on the Internet (§3.1, Example 3.1):
    /// once a host learns `hq`'s address from the query it can reply
    /// directly, which is exactly what ALLREPORT's *Direct Delivery* does
    /// (§4.4). Costs one message; takes one `δ` like any other hop.
    ///
    /// Not available to sensor-network protocols — radio reaches only
    /// physical neighbours — so experiment drivers must not pair this
    /// with [`Medium::Radio`] (enforced by debug assertion).
    pub fn send_direct(&mut self, to: HostId, msg: M) {
        debug_assert!(
            self.medium == Medium::PointToPoint,
            "direct underlay sends require a point-to-point medium"
        );
        self.metrics.record_send(self.now);
        let d = self.delay.sample(self.rng);
        self.queue.push(
            self.now + d,
            Payload::Deliver {
                to,
                from: self.me,
                msg,
                depth: self.chain_depth + 1,
            },
        );
    }

    /// Schedule `on_timer(key)` to fire on this host after `delay` ticks
    /// (minimum 1: zero-delay wake-ups would allow Zeno loops).
    pub fn set_timer(&mut self, delay: u64, key: u64) {
        self.queue.push(
            self.now + delay.max(1),
            Payload::Timer { host: self.me, key },
        );
    }

    /// Schedule `on_timer(key)` to fire at the *end of the current tick*,
    /// after every message delivery of this instant has been processed.
    ///
    /// This is the batching idiom of the paper's Example 5.1: a host that
    /// receives several partial aggregates at time `t` combines them all
    /// and sends a single update at `t`. Timers order after deliveries at
    /// the same instant, so pushing one "now" achieves exactly that.
    ///
    /// May only be called while handling a message (calling it from
    /// `on_timer` could loop forever within one instant — debug-asserted).
    pub fn set_timer_at_tick_end(&mut self, key: u64) {
        debug_assert!(
            !self.in_timer,
            "set_timer_at_tick_end called from on_timer would Zeno-loop"
        );
        self.queue
            .push(self.now, Payload::Timer { host: self.me, key });
    }

    /// The communication medium of this run (protocols adapt their
    /// flushing strategy: radio cannot address a subset of neighbours).
    pub fn medium(&self) -> Medium {
        self.medium
    }

    /// Deterministic per-run randomness (for randomized protocols such as
    /// RANDOMIZEDREPORT and the FM coin flips).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// The mask of the slots of `row` (at most [`MASK_SLOTS`] long) whose
/// neighbour `pick` selects, asked in row order.
fn slot_mask(row: &[HostId], mut pick: impl FnMut(HostId) -> bool) -> u32 {
    debug_assert!(row.len() <= MASK_SLOTS);
    let mut mask = 0;
    for (i, &n) in row.iter().enumerate() {
        if pick(n) {
            mask |= 1 << i;
        }
    }
    mask
}
