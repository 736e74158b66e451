//! The event queue driving the simulation.
//!
//! Events are totally ordered by `(time, rank, seq)` — instant first,
//! then the same-instant rank of the payload (fails < joins < churn
//! polls < overlay polls < deliveries < timers), then insertion order. The production
//! implementation is a **bucketed calendar queue** ([`BucketQueue`]):
//! simulation events are overwhelmingly near-future (a send lands
//! `1..=δ` ticks ahead, a timer at most a deadline ahead), so a ring of
//! per-tick buckets — each a rank-sorted FIFO — turns every push and
//! pop into `O(1)` bucket ops instead of a `BinaryHeap`'s `O(log n)`
//! sift that repeatedly moves whole payloads. A bucket entry is the
//! payload alone: its rank is a function of the variant
//! ([`Payload::rank`]), so no rank byte is stored beside it, and a
//! delivery of a 24-byte message takes 40 bytes in flight, not 48. The
//! original heap implementation survives as the `#[cfg(test)]` oracle
//! ([`HeapQueue`]); property tests assert the two pop identical event
//! sequences.

use crate::Time;
use pov_topology::HostId;
use std::collections::VecDeque;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub(crate) enum Payload<M> {
    /// A host leaves the network (§3.2 dynamism model).
    Fail(HostId),
    /// A host joins the network.
    Join(HostId),
    /// A message arrives at `to`.
    Deliver {
        /// Receiving host.
        to: HostId,
        /// Sending host.
        from: HostId,
        /// Protocol payload.
        msg: M,
        /// Causal chain depth (time-cost accounting, §6.3).
        depth: u32,
    },
    /// A timer set by `host` with protocol-chosen `key` fires.
    Timer {
        /// Host whose timer fires.
        host: HostId,
        /// Protocol-chosen timer key.
        key: u64,
    },
    /// Poll the installed dynamic churn source
    /// (`SimBuilder::dynamic_churn`).
    ChurnPoll,
    /// Poll the installed overlay-maintenance driver
    /// (`SimBuilder::overlay`).
    OverlayPoll,
}

impl<M> Payload<M> {
    /// Events at the same instant are processed in rank order:
    /// failures first (a host that fails at `t` does not see messages
    /// delivered at `t` — and within a tick the static fail-before-join
    /// tie-break means a host scheduled for both dies, restarts, and
    /// ends the tick alive), then joins, then churn-source polls (a
    /// dynamically killed host misses the same tick's deliveries, like
    /// a static failure), then overlay polls (the maintenance plane
    /// sees the instant's final membership, and a message already in
    /// flight across a removed edge still delivers this tick), then
    /// deliveries, then timers (so a deadline timer at `t` observes
    /// every message arriving at `t`).
    fn rank(&self) -> u8 {
        match self {
            Payload::Fail(_) => 0,
            Payload::Join(_) => 1,
            Payload::ChurnPoll => 2,
            Payload::OverlayPoll => 3,
            Payload::Deliver { .. } => 4,
            Payload::Timer { .. } => 5,
        }
    }
}

/// The deterministic event queue: ties broken by (rank, insertion
/// order). Dispatches to the bucketed production implementation, or —
/// in test builds only — to the heap oracle a simulation was explicitly
/// built with (`SimBuilder::heap_queue_oracle`).
pub(crate) enum EventQueue<M> {
    /// The bucketed calendar queue (always used outside tests).
    Bucket(BucketQueue<M>),
    /// The pre-refactor `BinaryHeap` implementation, kept as the
    /// equivalence oracle.
    #[cfg(test)]
    Heap(HeapQueue<M>),
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue::Bucket(BucketQueue::new())
    }

    /// A queue backed by the original `BinaryHeap` ordering — the
    /// oracle side of the equivalence property tests.
    #[cfg(test)]
    pub fn heap_oracle() -> Self {
        EventQueue::Heap(HeapQueue::new())
    }

    #[inline]
    pub fn push(&mut self, at: Time, payload: Payload<M>) {
        match self {
            EventQueue::Bucket(q) => q.push(at, payload),
            #[cfg(test)]
            EventQueue::Heap(q) => q.push(at, payload),
        }
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Payload<M>)> {
        match self {
            EventQueue::Bucket(q) => q.pop(),
            #[cfg(test)]
            EventQueue::Heap(q) => q.pop(),
        }
    }

    /// Instant of the next event, if any. `&mut` because the bucketed
    /// queue advances its ring to the next non-empty bucket here (the
    /// amortized-O(1) part of the calendar-queue contract).
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        match self {
            EventQueue::Bucket(q) => q.peek_time(),
            #[cfg(test)]
            EventQueue::Heap(q) => q.peek_time(),
        }
    }

    /// Pop the next event only if it is a [`Payload::Deliver`] at exactly
    /// instant `at` — the batch-collection primitive of sharded delivery.
    /// Sound because the `at`-tick delivery run is *closed* once draining
    /// reaches rank 4: sends always land ≥ 1 tick ahead, so no handler
    /// can append another delivery to the current instant (only tick-end
    /// timers, rank 5, which this refuses to pop).
    pub fn pop_deliver_at(&mut self, at: Time) -> Option<Payload<M>> {
        match self {
            EventQueue::Bucket(q) => q.pop_deliver_at(at),
            #[cfg(test)]
            EventQueue::Heap(q) => q.pop_deliver_at(at),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        match self {
            EventQueue::Bucket(q) => q.len(),
            #[cfg(test)]
            EventQueue::Heap(q) => q.len(),
        }
    }
}

/// How many ticks ahead of the ring base an event may land and still be
/// bucketed; anything further goes to the `far` overflow heap until the
/// ring catches up. Covers every per-hop delay and protocol timer the
/// workloads use; only pre-materialized churn plans over long horizons
/// routinely overflow.
const WINDOW: u64 = 1 << 12;

/// One tick's events: pushed in seq order, rank-sorted once when the
/// tick becomes current (by [`Payload::rank`], computed, not stored),
/// then drained from the front.
type Bucket<M> = VecDeque<Payload<M>>;

/// A storage recycled to the ring tail keeps its allocation only up to
/// this many events; a larger one is freed. The tail is reached again
/// only after a full ring's worth of ticks (often never: a pre-scheduled
/// churn plan stretches the ring over the whole horizon), so holding
/// wave-sized storage there would pin one peak per tick of the ring.
const TAIL_KEEP: usize = 16;

/// The bucketed calendar queue.
///
/// # Ordering invariants
///
/// * `buckets[i]` holds the events of tick `base + i`. When the front
///   tick drains, its storage (sized by that tick's wave) is handed to
///   the bucket one tick ahead of the new front — where the next tick's
///   sends land — taking over that bucket's already-queued events in
///   order; whichever storage is smaller moves to the ring tail (freed
///   if larger than [`TAIL_KEEP`]). A couple of wave-sized buffers
///   circulate, and every other bucket holds capacity for what is in
///   flight in it, so the queue's memory tracks the events in flight,
///   not the horizon.
/// * Within a bucket, events are appended in push order, which **is**
///   `seq` order; a single *stable* sort by rank when the tick becomes
///   current yields exactly the `(rank, seq)` order the heap produced.
/// * After the current bucket is rank-sorted, the engine may still push
///   into it — but only tick-end timers can target the current instant
///   (sends have delay ≥ 1, `set_timer` clamps to ≥ 1, churn polls move
///   strictly forward). A timer's rank (5) is the maximum, so appending
///   keeps the bucket sorted; the debug assertion in `push` enforces
///   this so any future same-tick event class fails loudly instead of
///   silently reordering.
/// * Events at or beyond `base + WINDOW` wait in the `far` min-heap,
///   ordered by `(time, rank, seq)`, and migrate into the ring the
///   moment the base advances to within `WINDOW` of them — i.e. before
///   any ring push could target their tick, preserving FIFO.
pub(crate) struct BucketQueue<M> {
    buckets: VecDeque<Bucket<M>>,
    /// Tick of `buckets[0]`.
    base: u64,
    /// Whether `buckets[0]` has been rank-sorted for draining.
    prepared: bool,
    /// Events in `buckets`, excluding `far`.
    in_buckets: usize,
    /// Far-future overflow, min-ordered by `(time, rank, seq)`.
    far: std::collections::BinaryHeap<FarEvent<M>>,
    /// Insertion counter for `far` ordering.
    far_seq: u64,
}

struct FarEvent<M> {
    at: u64,
    seq: u64,
    payload: Payload<M>,
}

impl<M> FarEvent<M> {
    fn key(&self) -> (u64, u8, u64) {
        (self.at, self.payload.rank(), self.seq)
    }
}

impl<M> PartialEq for FarEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for FarEvent<M> {}
impl<M> PartialOrd for FarEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for FarEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key().cmp(&self.key())
    }
}

impl<M> BucketQueue<M> {
    pub fn new() -> Self {
        BucketQueue {
            buckets: VecDeque::new(),
            base: 0,
            prepared: false,
            in_buckets: 0,
            far: std::collections::BinaryHeap::new(),
            far_seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.in_buckets + self.far.len()
    }

    pub fn push(&mut self, at: Time, payload: Payload<M>) {
        debug_assert!(at.0 >= self.base, "event scheduled in the past");
        let offset = at.0 - self.base;
        if offset >= WINDOW {
            self.far.push(FarEvent {
                at: at.0,
                seq: self.far_seq,
                payload,
            });
            self.far_seq += 1;
            return;
        }
        let idx = offset as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, VecDeque::new);
        }
        if idx == 0 && self.prepared {
            // The current tick is mid-drain: appending is only correct
            // if the new event sorts after everything still in the
            // bucket (see the ordering invariants above).
            debug_assert!(
                self.buckets[0]
                    .back()
                    .is_none_or(|last| last.rank() <= payload.rank()),
                "same-tick push would reorder the current bucket"
            );
        }
        self.buckets[idx].push_back(payload);
        self.in_buckets += 1;
    }

    /// Advance the ring so `buckets[0]` is the earliest non-empty tick
    /// (rank-sorted, ready to drain), migrating far-future events as
    /// the window slides over them.
    fn settle(&mut self) {
        loop {
            if self.in_buckets == 0 {
                if self.far.is_empty() {
                    return;
                }
                // Jump the base straight to the earliest far event — no
                // point rotating through an empty window one tick at a
                // time.
                self.base = self.far.peek().expect("non-empty").at;
                self.prepared = false;
                self.migrate_far();
                continue;
            }
            if self.buckets.front().is_some_and(|b| !b.is_empty()) {
                if !self.prepared {
                    // Stable sort: equal ranks keep push (= seq) order.
                    self.buckets[0].make_contiguous().sort_by_key(Payload::rank);
                    self.prepared = true;
                }
                return;
            }
            // Recycle the drained front bucket's storage (see the
            // invariants above): the larger of it and the storage one
            // tick ahead of the new front serves that tick. In a ring
            // of at most two ticks the tail *is* that tick.
            //
            // Storage is emptied by draining, but `clear` also rewinds a
            // ring buffer's head: the next tick then fills it from the
            // start, so the rank sort finds it contiguous and only the
            // pages it needs are touched.
            let mut spare = self.buckets.pop_front().expect("in_buckets > 0");
            spare.clear();
            if let Some(ahead) = self.buckets.get_mut(1) {
                if spare.capacity() > ahead.capacity() {
                    spare.append(ahead);
                    std::mem::swap(&mut spare, ahead);
                    spare.clear();
                }
                if spare.capacity() > TAIL_KEEP {
                    spare = VecDeque::new();
                }
            }
            self.buckets.push_back(spare);
            self.base += 1;
            self.prepared = false;
            self.migrate_far();
        }
    }

    /// Move every far event whose tick now falls inside the ring window
    /// into its bucket. Popped in `(time, rank, seq)` order, so same-
    /// bucket appends preserve the global FIFO contract.
    fn migrate_far(&mut self) {
        while self.far.peek().is_some_and(|fe| fe.at < self.base + WINDOW) {
            let fe = self.far.pop().expect("peeked");
            let idx = (fe.at - self.base) as usize;
            if self.buckets.len() <= idx {
                self.buckets.resize_with(idx + 1, VecDeque::new);
            }
            self.buckets[idx].push_back(fe.payload);
            self.in_buckets += 1;
        }
    }

    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle();
        (self.len() > 0).then_some(Time(self.base))
    }

    /// Event slots allocated across the ring (the memory-bound tests).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.buckets.iter().map(VecDeque::capacity).sum()
    }

    pub fn pop(&mut self) -> Option<(Time, Payload<M>)> {
        self.settle();
        let payload = self.buckets.front_mut()?.pop_front()?;
        self.in_buckets -= 1;
        Some((Time(self.base), payload))
    }

    /// See [`EventQueue::pop_deliver_at`]. The prepared bucket is rank-
    /// sorted, so the remaining deliveries of the instant sit contiguous
    /// at its front; pop while the head is rank 4. Deliberately does
    /// *not* settle: the caller just popped an event at `at`, so the
    /// ring base already sits on this tick, and settling after the
    /// bucket empties would advance the base past `at` — making the
    /// batch's post-merge pushes (tick-end timers at `at`, sends at
    /// `at + d`) look scheduled in the past.
    pub fn pop_deliver_at(&mut self, at: Time) -> Option<Payload<M>> {
        if self.base != at.0 {
            return None;
        }
        let front = self.buckets.front_mut()?;
        if front
            .front()
            .is_some_and(|p| matches!(p, Payload::Deliver { .. }))
        {
            let payload = front.pop_front().expect("head checked");
            self.in_buckets -= 1;
            Some(payload)
        } else {
            None
        }
    }
}

// ---------------------------------------------------------------- oracle

/// The pre-refactor implementation: a `BinaryHeap` over explicit
/// `(time, rank, seq)` keys. Kept (test builds only) as the ordering
/// oracle the bucketed queue is property-tested against.
#[cfg(test)]
pub(crate) struct HeapQueue<M> {
    heap: std::collections::BinaryHeap<Event<M>>,
    next_seq: u64,
}

#[cfg(test)]
struct Event<M> {
    at: Time,
    seq: u64,
    payload: Payload<M>,
}

#[cfg(test)]
impl<M> Event<M> {
    fn cmp_key(&self) -> (Time, u8, u64) {
        (self.at, self.payload.rank(), self.seq)
    }
}

#[cfg(test)]
impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
#[cfg(test)]
impl<M> Eq for Event<M> {}
#[cfg(test)]
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(test)]
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        other.cmp_key().cmp(&self.cmp_key())
    }
}

#[cfg(test)]
impl<M> HeapQueue<M> {
    pub fn new() -> Self {
        HeapQueue {
            heap: std::collections::BinaryHeap::new(),
            next_seq: 0,
        }
    }

    pub fn push(&mut self, at: Time, payload: Payload<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, payload });
    }

    pub fn pop(&mut self) -> Option<(Time, Payload<M>)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    pub fn peek_time(&mut self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn pop_deliver_at(&mut self, at: Time) -> Option<Payload<M>> {
        let head = self.heap.peek()?;
        if head.at == at && head.payload.rank() == 4 {
            Some(self.heap.pop().expect("peeked").payload)
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(Time(5), Payload::Fail(HostId(0)));
        q.push(Time(1), Payload::Fail(HostId(1)));
        q.push(Time(3), Payload::Fail(HostId(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn same_time_rank_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(
            Time(1),
            Payload::Timer {
                host: HostId(0),
                key: 0,
            },
        );
        q.push(
            Time(1),
            Payload::Deliver {
                to: HostId(0),
                from: HostId(1),
                msg: 9,
                depth: 0,
            },
        );
        q.push(Time(1), Payload::Fail(HostId(2)));
        let first = q.pop().unwrap();
        assert!(matches!(first.1, Payload::Fail(_)));
        let second = q.pop().unwrap();
        assert!(matches!(second.1, Payload::Deliver { .. }));
        let third = q.pop().unwrap();
        assert!(matches!(third.1, Payload::Timer { .. }));
    }

    #[test]
    fn fifo_among_equal_events() {
        let mut q: EventQueue<u8> = EventQueue::new();
        for i in 0..10u8 {
            q.push(
                Time(2),
                Payload::Deliver {
                    to: HostId(0),
                    from: HostId(1),
                    msg: i,
                    depth: 0,
                },
            );
        }
        let msgs: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|(_, p)| match p {
                Payload::Deliver { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(msgs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(7), Payload::Join(HostId(0)));
        assert_eq!(q.peek_time(), Some(Time(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_cross_the_window() {
        // Events far past the ring window detour through the overflow
        // heap and still pop in exact (time, rank, seq) order.
        let mut q: EventQueue<u8> = EventQueue::new();
        let far = WINDOW * 3 + 17;
        q.push(
            Time(far),
            Payload::Timer {
                host: HostId(0),
                key: 2,
            },
        );
        q.push(Time(far), Payload::Fail(HostId(1)));
        q.push(Time(2), Payload::Join(HostId(2)));
        q.push(Time(far + WINDOW), Payload::Join(HostId(3)));
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert!(matches!(q.pop(), Some((Time(2), Payload::Join(_)))));
        // Jumps straight to the far tick: fail (rank 0) before timer.
        let (t, p) = q.pop().unwrap();
        assert_eq!(t, Time(far));
        assert!(matches!(p, Payload::Fail(_)));
        assert!(matches!(q.pop(), Some((_, Payload::Timer { .. }))));
        assert_eq!(q.pop().unwrap().0, Time(far + WINDOW));
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_timer_push_mid_drain() {
        // The tick-end-timer idiom: while draining tick 3's deliveries,
        // a timer lands on the same tick and must fire after them.
        let mut q: EventQueue<u8> = EventQueue::new();
        for i in 0..3u8 {
            q.push(
                Time(3),
                Payload::Deliver {
                    to: HostId(0),
                    from: HostId(1),
                    msg: i,
                    depth: 0,
                },
            );
        }
        assert!(matches!(
            q.pop(),
            Some((_, Payload::Deliver { msg: 0, .. }))
        ));
        q.push(
            Time(3),
            Payload::Timer {
                host: HostId(0),
                key: 9,
            },
        );
        assert!(matches!(
            q.pop(),
            Some((_, Payload::Deliver { msg: 1, .. }))
        ));
        assert!(matches!(
            q.pop(),
            Some((_, Payload::Deliver { msg: 2, .. }))
        ));
        assert!(matches!(
            q.pop(),
            Some((Time(3), Payload::Timer { key: 9, .. }))
        ));
    }

    #[test]
    fn a_queue_entry_is_the_payload_alone() {
        // Compiles only while a bucket holds bare payloads: no rank byte
        // beside each, so a 24-byte message's delivery fits 40 bytes.
        let bucket: Bucket<[u64; 3]> = VecDeque::new();
        let _: Option<&Payload<[u64; 3]>> = bucket.front();
        assert!(std::mem::size_of::<Payload<[u64; 3]>>() <= 40);
    }

    fn deliver(msg: u8) -> Payload<u8> {
        Payload::Deliver {
            to: HostId(0),
            from: HostId(1),
            msg,
            depth: 0,
        }
    }

    #[test]
    fn drained_storage_moves_one_tick_ahead_of_the_new_front() {
        // Tick 1 is a wave, tick 3 already holds two events when tick 1
        // drains: the wave's storage takes them over, in order.
        let mut q: BucketQueue<u8> = BucketQueue::new();
        for i in 0..40 {
            q.push(Time(1), deliver(i));
        }
        q.push(Time(2), deliver(100));
        q.push(Time(3), deliver(200));
        q.push(Time(3), deliver(201));
        for _ in 0..40 {
            assert_eq!(q.pop().map(|(t, _)| t), Some(Time(1)));
        }
        assert!(matches!(
            q.pop(),
            Some((Time(2), Payload::Deliver { msg: 100, .. }))
        ));
        assert!(
            q.buckets[1].capacity() >= 40,
            "tick 3 should now own the wave's storage"
        );
        for want in [200, 201] {
            assert!(matches!(
                q.pop(),
                Some((Time(3), Payload::Deliver { msg, .. })) if msg == want
            ));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn ring_capacity_tracks_events_in_flight_not_the_horizon() {
        // K sends per tick over H ticks, landing `1..=spread` ticks
        // ahead, behind one pre-scheduled event at the horizon (a churn
        // plan does this) so the ring spans all H ticks. Rotating every
        // drained bucket to the tail with its capacity would retain
        // ~H·K slots; recycling keeps O(K).
        const K: usize = 256;
        const H: u64 = 512;
        for spread in [1u64, 3] {
            let mut q: BucketQueue<u8> = BucketQueue::new();
            q.push(Time(H + spread + 1), Payload::ChurnPoll);
            let mut due = vec![0usize; (H + spread + 2) as usize];
            for t in 0..=H {
                for _ in 0..due[t as usize] {
                    assert_eq!(q.pop().map(|(at, _)| at), Some(Time(t)));
                }
                for i in 0..K {
                    let at = t + 1 + i as u64 % spread;
                    q.push(Time(at), deliver(i as u8));
                    due[at as usize] += 1;
                }
            }
            assert!(q.buckets.len() as u64 > H, "the ring spans the horizon");
            let cap = q.capacity();
            assert!(
                cap <= 8 * K,
                "spread {spread}: {cap} slots retained for {K} sends per tick"
            );
        }
    }

    /// A compact encodable action stream for the equivalence property:
    /// interleaved pushes (time offset, payload class) and pops.
    fn arb_actions() -> impl Strategy<Value = Vec<(u16, u8, u8)>> {
        prop::collection::vec((0u16..2_000, 0u8..6, 0u8..2), 1..400)
    }

    /// Near-future bursts: each action pushes `copies` events `dt`
    /// ticks ahead, then pops up to `pops` — so drained waves recycle
    /// into a next-but-one bucket that already holds events.
    fn arb_bursts() -> impl Strategy<Value = Vec<(u16, u8, u8, u8)>> {
        prop::collection::vec((0u16..4, 0u8..6, 1u8..24, 0u8..32), 1..120)
    }

    fn payload_of(class: u8, tag: u8) -> Payload<u8> {
        match class {
            0 => Payload::Fail(HostId(u32::from(tag))),
            1 => Payload::Join(HostId(u32::from(tag))),
            2 => Payload::ChurnPoll,
            3 => Payload::OverlayPoll,
            4 => Payload::Deliver {
                to: HostId(u32::from(tag)),
                from: HostId(0),
                msg: tag,
                depth: 0,
            },
            _ => Payload::Timer {
                host: HostId(u32::from(tag)),
                key: u64::from(tag),
            },
        }
    }

    fn fingerprint(t: Time, p: &Payload<u8>) -> (u64, u8, u32, u8) {
        let (host, msg) = match *p {
            Payload::Fail(h) | Payload::Join(h) => (h.0, 0),
            Payload::ChurnPoll | Payload::OverlayPoll => (0, 0),
            Payload::Deliver { to, msg, .. } => (to.0, msg),
            Payload::Timer { host, key } => (host.0, key as u8),
        };
        (t.0, p.rank(), host, msg)
    }

    /// Replay `(dt, class, copies, pops)` actions against the bucketed
    /// queue and the heap oracle; both must emit the identical sequence.
    fn check_against_oracle(actions: impl IntoIterator<Item = (u16, u8, u8, u8)>) {
        let mut bucket: EventQueue<u8> = EventQueue::new();
        let mut heap: EventQueue<u8> = EventQueue::heap_oracle();
        let mut now = 0u64; // events may never be pushed in the past
        let mut tag = 0u8;
        for (dt, class, copies, pops) in actions {
            // As in the engine, only tick-end timers (class 5) may target
            // the instant being drained.
            let dt = if class == 5 { dt } else { dt.max(1) };
            let at = Time(now + u64::from(dt));
            for _ in 0..copies {
                tag = tag.wrapping_add(1);
                bucket.push(at, payload_of(class, tag));
                heap.push(at, payload_of(class, tag));
            }
            assert_eq!(bucket.len(), heap.len());
            for _ in 0..pops {
                match (bucket.pop(), heap.pop()) {
                    (Some((bt, bp)), Some((ht, hp))) => {
                        assert_eq!(fingerprint(bt, &bp), fingerprint(ht, &hp));
                        now = bt.0;
                    }
                    (None, None) => {}
                    _ => panic!("one queue emptied before the other"),
                }
            }
        }
        // Drain both to the end.
        loop {
            assert_eq!(bucket.peek_time(), heap.peek_time());
            match (bucket.pop(), heap.pop()) {
                (Some((bt, bp)), Some((ht, hp))) => {
                    assert_eq!(fingerprint(bt, &bp), fingerprint(ht, &hp));
                }
                (None, None) => break,
                _ => panic!("one queue emptied before the other"),
            }
        }
    }

    proptest! {
        /// The tentpole equivalence bar at the queue level: for any
        /// interleaving of pushes and pops (with monotone lower bounds
        /// on push times, as the engine guarantees), the bucketed queue
        /// and the BinaryHeap oracle emit the identical event sequence.
        #[test]
        fn bucket_queue_matches_heap_oracle(actions in arb_actions()) {
            check_against_oracle(
                actions.into_iter().map(|(dt, class, pop)| (dt, class, 1, pop)),
            );
        }

        /// The same bar where storage recycling does its work: dense
        /// near-future bursts, so a drained wave's storage routinely
        /// takes over a bucket that already holds events.
        #[test]
        fn bucket_queue_matches_heap_oracle_under_recycling(actions in arb_bursts()) {
            check_against_oracle(actions);
        }
    }
}
