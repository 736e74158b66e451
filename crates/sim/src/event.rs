//! The event queue driving the simulation.
//!
//! Events are totally ordered by `(time, rank, seq)` — instant first,
//! then the same-instant rank of the payload (fails < joins < churn
//! polls < overlay polls < deliveries < timers), then insertion order. The production
//! implementation is a **bucketed calendar queue** ([`BucketQueue`]):
//! simulation events are overwhelmingly near-future (a send lands
//! `1..=δ` ticks ahead, a timer at most a deadline ahead), so a ring of
//! per-tick buckets turns every push and pop into `O(1)` bucket ops
//! instead of a `BinaryHeap`'s `O(log n)` sift that repeatedly moves
//! whole payloads.
//!
//! A bucket is two FIFO lanes drained in order — *wire* (deliveries and
//! fanouts), then *timers* — after the tick's *control* events (fails,
//! joins, polls), which wait in one small queue-wide heap. That is
//! exactly `(rank, seq)` order, so a tick's wave is never sorted and
//! never copied into sort scratch. A wire entry is the payload alone: a
//! delivery of a 16-byte message takes 32 bytes in flight, and so does
//! a [`Payload::Fanout`] carrying one broadcast, or one update round to
//! a subset of the sender's neighbours, to all its targets. A
//! timer-lane entry is the `(host, key)` pair, 8 bytes.
//!
//! A lane is a FIFO of fixed-capacity chunks ([`Lane`]). A chunk the
//! drain empties goes to a per-queue spare list, and the next push that
//! needs a chunk takes it from there, so a wave flows chunk by chunk
//! from the tick being drained to the ticks ahead: nothing is ever
//! reallocated or copied, and the queue holds what is in flight plus
//! at most one partly filled chunk per non-empty lane.
//!
//! The engine reads ahead of the drain: [`EventQueue::ahead`] names
//! what the `k`-th next pop of the front tick touches first (a
//! delivery's target, a fanout's sender, a timer's host) by indexing
//! the front bucket's wire lane and then its timer lane, popping
//! nothing. The engine prefetches that host's state. A wrong answer
//! would change no pop, so a property test checks `ahead` against the
//! pops that follow.
//!
//! The original heap implementation survives as the `#[cfg(test)]`
//! oracle ([`HeapQueue`]); property tests assert the two pop identical
//! event sequences.

use crate::Time;
use pov_topology::HostId;
use std::collections::{BinaryHeap, VecDeque};

/// The longest CSR row whose [`Payload::Fanout`] selects its targets by
/// a mask of row slots; a longer row's fanout names one neighbour to skip.
pub(crate) const MASK_SLOTS: usize = 32;

/// The `targets` of a fanout from a row longer than [`MASK_SLOTS`] that
/// skips nobody: no CSR row holds this id.
pub(crate) const NO_SKIP: u32 = u32::MAX;

/// The bytes one queued delivery or fanout of a message `M` takes in a
/// wire lane: the in-flight cost of a protocol's message layout.
pub const fn wire_entry_bytes<M>() -> usize {
    std::mem::size_of::<Payload<M>>()
}

/// What a queued wire or timer event touches first when it fires, as
/// [`EventQueue::ahead`] names it: the engine prefetches that state a
/// few events before it dispatches the event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Touch {
    /// A delivery's target or a timer's host: that host's state.
    Host(HostId),
    /// A fanout's sender: the bounds of its CSR row.
    Row(HostId),
}

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
    /// One message arrives at several neighbours of `from`, in CSR row
    /// order: the queued form of a broadcast or an update round whose
    /// copies all land at one instant on a neighbour list that cannot
    /// change. Dispatch expands it into one delivery per target, and the
    /// queue's [`EventQueue::len`] counts those targets, not the entry.
    Fanout {
        /// Sending host, whose CSR row lists the targets.
        from: HostId,
        /// Which of the row's neighbours receive it. A row of at most
        /// [`MASK_SLOTS`] neighbours: a mask of their slots, bit `i` for
        /// the `i`-th. A longer row: the id of the one neighbour to
        /// skip, or [`NO_SKIP`].
        targets: u32,
        /// Protocol payload, cloned per target at delivery.
        msg: M,
        /// Causal chain depth (time-cost accounting, §6.3).
        depth: u32,
    },
    /// A timer set by `host` with protocol-chosen `key` fires.
    Timer {
        /// Host whose timer fires.
        host: HostId,
        /// Protocol-chosen timer key.
        key: u32,
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
            Payload::Deliver { .. } | Payload::Fanout { .. } => 4,
            Payload::Timer { .. } => 5,
        }
    }
}

/// The deterministic event queue: ties broken by (rank, insertion
/// order). Dispatches to the bucketed production implementation, or —
/// in test builds only — to the heap oracle a simulation was explicitly
/// built with (`SimBuilder::heap_queue_oracle`).
pub(crate) struct EventQueue<M> {
    imp: Imp<M>,
    /// Targets beyond the first of every fanout pushed and not yet
    /// retired, so that [`EventQueue::len`] counts deliveries.
    fanout_extra: usize,
}

enum Imp<M> {
    /// The bucketed calendar queue (always used outside tests).
    Bucket(BucketQueue<M>),
    /// The pre-refactor `BinaryHeap` implementation, kept as the
    /// equivalence oracle.
    #[cfg(test)]
    Heap(HeapQueue<M>),
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            imp: Imp::Bucket(BucketQueue::new()),
            fanout_extra: 0,
        }
    }

    /// A queue backed by the original `BinaryHeap` ordering — the
    /// oracle side of the equivalence property tests.
    #[cfg(test)]
    pub fn heap_oracle() -> Self {
        EventQueue {
            imp: Imp::Heap(HeapQueue::new()),
            fanout_extra: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, at: Time, payload: Payload<M>) {
        match &mut self.imp {
            Imp::Bucket(q) => q.push(at, payload),
            #[cfg(test)]
            Imp::Heap(q) => q.push(at, payload),
        }
    }

    /// Push a [`Payload::Fanout`] that will deliver to `count ≥ 2`
    /// hosts. Pair every pop of it with [`EventQueue::retire_fanout`].
    #[inline]
    pub fn push_fanout(&mut self, at: Time, payload: Payload<M>, count: usize) {
        debug_assert!(matches!(payload, Payload::Fanout { .. }) && count >= 2);
        self.fanout_extra += count - 1;
        self.push(at, payload);
    }

    /// A popped fanout has delivered to its `count` hosts.
    #[inline]
    pub fn retire_fanout(&mut self, count: usize) {
        debug_assert!(count >= 2 && self.fanout_extra >= count - 1);
        self.fanout_extra -= count - 1;
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Payload<M>)> {
        match &mut self.imp {
            Imp::Bucket(q) => q.pop(),
            #[cfg(test)]
            Imp::Heap(q) => q.pop(),
        }
    }

    /// Instant of the next event, if any. `&mut` because the bucketed
    /// queue advances its ring to the next non-empty bucket here (the
    /// amortized-O(1) part of the calendar-queue contract).
    #[inline]
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.imp {
            Imp::Bucket(q) => q.peek_time(),
            #[cfg(test)]
            Imp::Heap(q) => q.peek_time(),
        }
    }

    /// Pop the next event only if it is a [`Payload::Deliver`] at exactly
    /// instant `at` — the batch-collection primitive of sharded delivery.
    /// Sound because the `at`-tick delivery run is *closed* once draining
    /// reaches rank 4: sends always land ≥ 1 tick ahead, so no handler
    /// can append another delivery to the current instant (only tick-end
    /// timers, rank 5, which this refuses to pop). A fanout ends the
    /// batch; sharded runs queue none.
    pub fn pop_deliver_at(&mut self, at: Time) -> Option<Payload<M>> {
        match &mut self.imp {
            Imp::Bucket(q) => q.pop_deliver_at(at),
            #[cfg(test)]
            Imp::Heap(q) => q.pop_deliver_at(at),
        }
    }

    /// What the `k`-th next pop (`k ≥ 1`) touches first, without
    /// popping anything: `None` when that pop is past the front tick's
    /// last event, while one of the tick's control events is due, or on
    /// the heap oracle. Reads the front bucket's wire lane, then its
    /// timer lane.
    #[inline]
    pub fn ahead(&self, k: usize) -> Option<Touch> {
        match &self.imp {
            Imp::Bucket(q) => q.ahead(k),
            #[cfg(test)]
            Imp::Heap(_) => None,
        }
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries queued, a fanout counting one.
    pub fn entries(&self) -> usize {
        match &self.imp {
            Imp::Bucket(q) => q.len(),
            #[cfg(test)]
            Imp::Heap(q) => q.len(),
        }
    }

    /// Events pending, a fanout counting one per target.
    pub fn len(&self) -> usize {
        self.entries() + self.fanout_extra
    }
}

/// How many ticks ahead of the ring base a wire or timer event may land
/// and still be bucketed; anything further goes to the `far` overflow
/// heap until the ring catches up. Covers every per-hop delay and
/// protocol timer the workloads use.
const WINDOW: u64 = 1 << 12;

/// The byte size of one lane chunk: 16 KiB less the allocator's header,
/// far under glibc's 128 KiB mmap threshold, so chunks come from the
/// heap. A lane holding a few events touches one page of its chunk.
/// Against 4, 8, 48 and 120 KiB (docs/BENCHMARKING.md), 48 and 120 KiB
/// held more memory where many small runs follow each other, and 4 and
/// 8 KiB left more runs in the high mode of a bimodal peak RSS.
const CHUNK_BYTES: usize = (16 << 10) - 16;

/// A FIFO of `T` in fixed-capacity chunks of [`CHUNK_BYTES`]: a push
/// that finds the last chunk full appends a chunk taken from `spare`
/// (or a fresh one), and a pop that empties the front chunk hands it
/// back to `spare`. Storage is never reallocated or copied, and every
/// chunk in the lane holds at least one event.
struct Lane<T> {
    chunks: VecDeque<VecDeque<T>>,
}

impl<T> Lane<T> {
    /// Events per chunk.
    const CHUNK: usize = {
        assert!(
            std::mem::size_of::<T>() <= CHUNK_BYTES,
            "an event outgrows a chunk"
        );
        CHUNK_BYTES / std::mem::size_of::<T>()
    };

    fn new() -> Self {
        Lane {
            chunks: VecDeque::new(),
        }
    }

    #[inline]
    fn push_back(&mut self, item: T, spare: &mut Vec<VecDeque<T>>) {
        match self.chunks.back_mut() {
            Some(last) if last.len() < Self::CHUNK => last.push_back(item),
            _ => {
                let mut chunk = spare
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(Self::CHUNK));
                chunk.push_back(item);
                self.chunks.push_back(chunk);
            }
        }
    }

    #[inline]
    fn pop_front(&mut self, spare: &mut Vec<VecDeque<T>>) -> Option<T> {
        let front = self.chunks.front_mut()?;
        let item = front.pop_front();
        if front.is_empty() {
            let mut chunk = self.chunks.pop_front().expect("front exists");
            // Rewind the ring head, so the chunk's next user fills it
            // from the start and touches only the pages it needs.
            chunk.clear();
            spare.push(chunk);
        }
        item
    }

    fn front(&self) -> Option<&T> {
        self.chunks.front().and_then(VecDeque::front)
    }

    /// The `k`-th event from the front, or `Err` with what is left of
    /// `k` past this lane's last event. Every chunk holds an event, so
    /// this visits at most `k + 1` chunks.
    #[inline]
    fn get(&self, mut k: usize) -> Result<&T, usize> {
        for chunk in &self.chunks {
            match chunk.get(k) {
                Some(item) => return Ok(item),
                None => k -= chunk.len(),
            }
        }
        Err(k)
    }

    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Event slots this lane holds (the memory-bound tests).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.chunks.iter().map(VecDeque::capacity).sum()
    }

    /// Events queued in this lane.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.chunks.iter().map(VecDeque::len).sum()
    }
}

/// One tick's wire and timer events in two FIFO lanes, drained wire
/// first. Every event is appended to its lane in push (= `seq`) order.
struct Bucket<M> {
    /// Deliveries and fanouts (rank 4): the wave.
    wire: Lane<Payload<M>>,
    /// Timers (rank 5) as `(host, key)`.
    timers: Lane<(HostId, u32)>,
}

/// The queue's drained chunks, one list per lane kind, reused by the
/// next push that needs a chunk before anything new is allocated.
struct Spares<M> {
    wire: Vec<VecDeque<Payload<M>>>,
    timers: Vec<VecDeque<(HostId, u32)>>,
}

impl<M> Bucket<M> {
    fn new() -> Self {
        Bucket {
            wire: Lane::new(),
            timers: Lane::new(),
        }
    }

    /// Append a wire or timer event to its lane.
    #[inline]
    fn push(&mut self, payload: Payload<M>, spare: &mut Spares<M>) {
        match payload {
            Payload::Timer { host, key } => self.timers.push_back((host, key), &mut spare.timers),
            _ => self.wire.push_back(payload, &mut spare.wire),
        }
    }

    #[inline]
    fn pop(&mut self, spare: &mut Spares<M>) -> Option<Payload<M>> {
        if let Some(p) = self.wire.pop_front(&mut spare.wire) {
            return Some(p);
        }
        let (host, key) = self.timers.pop_front(&mut spare.timers)?;
        Some(Payload::Timer { host, key })
    }

    fn is_empty(&self) -> bool {
        self.wire.is_empty() && self.timers.is_empty()
    }
}

/// The bucketed calendar queue.
///
/// # Ordering invariants
///
/// * Control events (fails, joins, polls: a handful per tick, and the
///   only events a pre-scheduled churn plan spreads over the whole
///   horizon) wait in one `control` min-heap ordered by
///   `(time, rank, seq)`, whatever their distance. Wire and timer
///   events go to the ring.
/// * `buckets[i]` holds the wire and timer events of tick `base + i`,
///   each lane in [`Lane`] chunks. A chunk drained at the front tick
///   goes to the queue's [`Spares`], and the next tick's sends fill it
///   again, so a wave flows chunk by chunk from the tick being drained
///   to the ticks ahead. A lane holds its events plus at most one
///   partly filled chunk (and, at the front, one partly drained one),
///   so the queue's memory tracks the events in flight, not the
///   horizon, and a drained bucket rotates to the ring tail holding
///   nothing.
/// * At tick `base` the control events due pop first, then the wire
///   lane, then the timer lane: ranks ascending, and within a lane push
///   (= `seq`) order. Each pop takes the least `(rank, seq)` left at the
///   tick, so the order is exactly the heap oracle's without sorting
///   anything — also for an event pushed into the tick being drained
///   (in the engine, only tick-end timers are).
/// * When the ring holds no events, the base jumps straight to the next
///   control or far event instead of rotating through empty ticks.
/// * Wire and timer events at or beyond `base + WINDOW` wait in the
///   `far` min-heap, ordered by `(time, rank, seq)`, and migrate into
///   the ring the moment the base advances to within `WINDOW` of them —
///   i.e. before any ring push could target their tick, preserving
///   FIFO.
pub(crate) struct BucketQueue<M> {
    buckets: VecDeque<Bucket<M>>,
    /// Tick of `buckets[0]`.
    base: u64,
    /// Events in `buckets`, a fanout counting one.
    in_buckets: usize,
    /// Every pending control event, min-ordered by `(time, rank, seq)`.
    control: BinaryHeap<Keyed<M>>,
    /// Far-future wire and timer events, min-ordered by
    /// `(time, rank, seq)`.
    far: BinaryHeap<Keyed<M>>,
    /// Insertion counter for the heaps' FIFO tie-break.
    seq: u64,
    /// Drained lane chunks awaiting reuse.
    spare: Spares<M>,
}

/// An event in one of the queue's min-heaps.
struct Keyed<M> {
    at: u64,
    seq: u64,
    payload: Payload<M>,
}

impl<M> Keyed<M> {
    fn key(&self) -> (u64, u8, u64) {
        (self.at, self.payload.rank(), self.seq)
    }
}

impl<M> PartialEq for Keyed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Keyed<M> {}
impl<M> PartialOrd for Keyed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Keyed<M> {
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
            in_buckets: 0,
            control: BinaryHeap::new(),
            far: BinaryHeap::new(),
            seq: 0,
            spare: Spares {
                wire: Vec::new(),
                timers: Vec::new(),
            },
        }
    }

    /// Queue entries, a fanout counting one.
    pub fn len(&self) -> usize {
        self.in_buckets + self.control.len() + self.far.len()
    }

    fn keyed(&mut self, at: u64, payload: Payload<M>) -> Keyed<M> {
        self.seq += 1;
        Keyed {
            at,
            seq: self.seq,
            payload,
        }
    }

    #[inline]
    pub fn push(&mut self, at: Time, payload: Payload<M>) {
        debug_assert!(at.0 >= self.base, "event scheduled in the past");
        // Ranks 0–3: a fail, join or poll.
        if payload.rank() < 4 {
            let ev = self.keyed(at.0, payload);
            self.control.push(ev);
            return;
        }
        let offset = at.0 - self.base;
        if offset >= WINDOW {
            let ev = self.keyed(at.0, payload);
            self.far.push(ev);
            return;
        }
        self.push_ring(offset as usize, payload);
    }

    /// Append a wire or timer event to the ring bucket `idx` ticks past
    /// the base, growing the ring to reach it.
    #[inline]
    fn push_ring(&mut self, idx: usize, payload: Payload<M>) {
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Bucket::new);
        }
        self.buckets[idx].push(payload, &mut self.spare);
        self.in_buckets += 1;
    }

    /// Whether a control event is due at the base tick.
    #[inline]
    fn control_due(&self) -> bool {
        self.control.peek().is_some_and(|ev| ev.at == self.base)
    }

    /// Advance the base to the earliest tick with an event, migrating
    /// far-future events as the window slides over them.
    fn settle(&mut self) {
        loop {
            if self.control_due() || self.buckets.front().is_some_and(|b| !b.is_empty()) {
                return;
            }
            if self.in_buckets == 0 {
                // Nothing in the ring: jump the base straight to the
                // next control or far event instead of rotating through
                // empty ticks one at a time.
                let next = [self.control.peek(), self.far.peek()]
                    .into_iter()
                    .flatten()
                    .map(|ev| ev.at)
                    .min();
                let Some(next) = next else { return };
                self.base = next;
                self.migrate_far();
                continue;
            }
            // The drained front bucket's chunks are already spares:
            // it rotates to the tail empty.
            let drained = self.buckets.pop_front().expect("in_buckets > 0");
            self.buckets.push_back(drained);
            self.base += 1;
            self.migrate_far();
        }
    }

    /// Move every far event whose tick now falls inside the ring window
    /// into its bucket. Popped in `(time, rank, seq)` order, so same-
    /// lane appends preserve the global FIFO contract.
    fn migrate_far(&mut self) {
        while self.far.peek().is_some_and(|ev| ev.at < self.base + WINDOW) {
            let ev = self.far.pop().expect("peeked");
            self.push_ring((ev.at - self.base) as usize, ev.payload);
        }
    }

    /// See [`EventQueue::ahead`]. Does not settle: right after a pop
    /// the front bucket is the popped event's tick.
    #[inline]
    pub fn ahead(&self, k: usize) -> Option<Touch> {
        debug_assert!(k >= 1, "the first next pop is ahead(1)");
        if self.control_due() {
            return None;
        }
        let bucket = self.buckets.front()?;
        match bucket.wire.get(k - 1) {
            Ok(&Payload::Deliver { to, .. }) => Some(Touch::Host(to)),
            Ok(&Payload::Fanout { from, .. }) => Some(Touch::Row(from)),
            Ok(_) => unreachable!("the wire lane holds deliveries and fanouts"),
            Err(k) => bucket
                .timers
                .get(k)
                .ok()
                .map(|&(host, _)| Touch::Host(host)),
        }
    }

    pub fn peek_time(&mut self) -> Option<Time> {
        self.settle();
        (self.len() > 0).then_some(Time(self.base))
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(Time, Payload<M>)> {
        self.settle();
        if self.control_due() {
            let ev = self.control.pop().expect("due");
            return Some((Time(ev.at), ev.payload));
        }
        let payload = self.buckets.front_mut()?.pop(&mut self.spare)?;
        self.in_buckets -= 1;
        Some((Time(self.base), payload))
    }

    /// See [`EventQueue::pop_deliver_at`]. Deliveries drain after the
    /// instant's control events, so once the caller has popped one at
    /// `at` the rest of the instant's wire lane sits at the front; pop
    /// while its head is a delivery. Deliberately does *not* settle:
    /// the caller just popped an event at `at`, so the ring base already
    /// sits on this tick, and settling after the bucket empties would
    /// advance the base past `at` — making the batch's post-merge pushes
    /// (tick-end timers at `at`, sends at `at + d`) look scheduled in
    /// the past.
    pub fn pop_deliver_at(&mut self, at: Time) -> Option<Payload<M>> {
        if self.base != at.0 || self.control_due() {
            return None;
        }
        let wire = &mut self.buckets.front_mut()?.wire;
        if wire
            .front()
            .is_some_and(|p| matches!(p, Payload::Deliver { .. }))
        {
            let payload = wire.pop_front(&mut self.spare.wire).expect("head checked");
            self.in_buckets -= 1;
            Some(payload)
        } else {
            None
        }
    }

    /// Event slots allocated for control, wire and timer events, lane
    /// chunks and spare chunks alike (the memory-bound tests).
    #[cfg(test)]
    fn lane_capacity(&self) -> [usize; 3] {
        let spare = [
            self.control.capacity(),
            self.spare.wire.len() * Lane::<Payload<M>>::CHUNK,
            self.spare.timers.len() * Lane::<(HostId, u32)>::CHUNK,
        ];
        self.buckets.iter().fold(spare, |[c, w, t], b| {
            [c, w + b.wire.capacity(), t + b.timers.capacity()]
        })
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
        if head.at == at && matches!(head.payload, Payload::Deliver { .. }) {
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
        // Compiles only while the wire lane holds bare payloads and the
        // timer lane bare `(host, key)` pairs: no rank byte beside
        // either. `[u64; 2]` stands in for SPANNINGTREE's `StMsg` (16
        // bytes, 8-aligned, pinned in `spanning_tree.rs`) with no niche
        // to spare, so a delivery or a whole broadcast's fanout of it
        // fits 32 bytes, and a timer with its 32-bit key 8.
        let bucket: Bucket<[u64; 2]> = Bucket::new();
        let _: Option<&Payload<[u64; 2]>> = bucket.wire.front();
        let _: Option<&(HostId, u32)> = bucket.timers.front();
        assert!(std::mem::size_of::<Payload<[u64; 2]>>() <= 32);
        assert_eq!(std::mem::size_of::<(HostId, u32)>(), 8);
    }

    #[test]
    fn a_fanout_holds_one_slot_and_counts_its_targets() {
        // A k-target broadcast is one wire entry, however large k is,
        // while `len` counts the k deliveries it stands for.
        const K: usize = 1_000;
        let mut q: EventQueue<u8> = EventQueue::new();
        let fanout = Payload::Fanout {
            from: HostId(0),
            targets: NO_SKIP,
            msg: 7,
            depth: 1,
        };
        q.push_fanout(Time(1), fanout, K);
        q.push(Time(1), deliver(8));
        assert_eq!(q.len(), K + 1);
        let Imp::Bucket(b) = &q.imp else {
            unreachable!("built bucketed")
        };
        assert_eq!(b.len(), 2, "two entries");
        assert_eq!(b.lane_capacity()[1], WIRE_CHUNK, "one chunk");
        assert!(matches!(q.pop(), Some((Time(1), Payload::Fanout { .. }))));
        q.retire_fanout(K);
        assert_eq!(q.len(), 1);
        assert!(matches!(q.pop(), Some((Time(1), Payload::Deliver { .. }))));
        assert!(q.is_empty());
    }

    fn deliver(msg: u8) -> Payload<u8> {
        Payload::Deliver {
            to: HostId(0),
            from: HostId(1),
            msg,
            depth: 0,
        }
    }

    /// Wire events per chunk of the property tests' queue.
    const WIRE_CHUNK: usize = Lane::<Payload<u8>>::CHUNK;

    /// Wire chunks in the queue's lanes and spare list: a fresh
    /// allocation adds one, a reuse does not, and none is ever freed
    /// while the queue lives.
    fn wire_chunks(q: &BucketQueue<u8>) -> usize {
        q.spare.wire.len() + q.buckets.iter().map(|b| b.wire.chunks.len()).sum::<usize>()
    }

    #[test]
    fn a_wave_never_grows_a_chunk() {
        // 10⁵ deliveries at one tick fill whole chunks of the fixed
        // capacity, then drain in push order into the spare list.
        const W: usize = 100_000;
        let mut q: BucketQueue<u8> = BucketQueue::new();
        for i in 0..W {
            q.push(Time(1), deliver(i as u8));
        }
        let lane = &q.buckets[1].wire;
        assert_eq!(lane.chunks.len(), W.div_ceil(WIRE_CHUNK));
        assert!(lane.chunks.iter().all(|c| c.capacity() == WIRE_CHUNK));
        assert!(WIRE_CHUNK * std::mem::size_of::<Payload<u8>>() <= CHUNK_BYTES);
        for i in 0..W {
            assert!(matches!(
                q.pop(),
                Some((Time(1), Payload::Deliver { msg, .. })) if msg == i as u8
            ));
        }
        assert!(q.buckets.iter().all(Bucket::is_empty));
        assert_eq!(q.spare.wire.len(), W.div_ceil(WIRE_CHUNK));
        assert!(q.spare.wire.iter().all(|c| c.capacity() == WIRE_CHUNK));
    }

    #[test]
    fn drained_chunks_are_reused_before_a_fresh_allocation() {
        // Tick 1 holds three chunks' worth. Draining it while the next
        // tick's sends land (one send per pop, as in a flood) reuses
        // each drained chunk: the queue never holds more chunks than
        // the two ticks have in flight, plus one being filled.
        let wave = 3 * WIRE_CHUNK;
        let mut q: BucketQueue<u8> = BucketQueue::new();
        for i in 0..wave {
            q.push(Time(1), deliver(i as u8));
        }
        assert_eq!(wire_chunks(&q), 3);
        for i in 0..wave {
            assert_eq!(q.pop().map(|(t, _)| t), Some(Time(1)));
            q.push(Time(2), deliver(i as u8));
            assert!(wire_chunks(&q) <= 4, "after {i} pops: {}", wire_chunks(&q));
        }
        // A whole tick drained into the spares, then refilled from them.
        for _ in 0..wave {
            assert_eq!(q.pop().map(|(t, _)| t), Some(Time(2)));
        }
        let chunks = wire_chunks(&q);
        assert_eq!(q.spare.wire.len(), chunks);
        for i in 0..wave {
            q.push(Time(3), deliver(i as u8));
        }
        assert_eq!(wire_chunks(&q), chunks, "no fresh chunk");
        assert_eq!(q.spare.wire.len(), chunks - 3);
    }

    #[test]
    fn chunk_boundaries_keep_the_oracle_order() {
        // Runs of 60 bursts of 255 deliveries, fanouts and timers into
        // the next tick, each run closed by 255 pops, fill one tick's
        // wire lane past a chunk while earlier ticks drain into the
        // spares, and still pop exactly as the heap oracle does.
        const RUN: u16 = 60;
        assert!(usize::from(RUN) * 255 * 2 / 3 > WIRE_CHUNK);
        check_against_oracle((0..4 * RUN).map(|i| {
            let pops = if i % RUN == RUN - 1 { 255 } else { 0 };
            (1, [4, 5, 6][usize::from(i % 3)], 255, pops)
        }));
    }

    #[test]
    fn ring_capacity_tracks_events_in_flight_not_the_horizon() {
        // K events per tick over H ticks, landing `1..=spread` ticks
        // ahead, behind one timer at the horizon (a deadline timer does
        // this) so the ring spans all H ticks. Keeping every drained
        // tick's storage would retain ~H·K slots. The control heap
        // keeps O(K); the wire and timer lanes keep their events in
        // flight plus at most one chunk per non-empty lane, spare
        // chunks included.
        const K: usize = 256;
        const H: u64 = 512;
        for (lane, class) in [(0, 0u8), (1, 4), (2, 5)] {
            for spread in [1u64, 3] {
                let mut q: BucketQueue<u8> = BucketQueue::new();
                q.push(Time(H + spread + 1), payload_of(5, 0));
                let mut due = vec![0usize; (H + spread + 2) as usize];
                for t in 0..=H {
                    for _ in 0..due[t as usize] {
                        assert_eq!(q.pop().map(|(at, _)| at), Some(Time(t)));
                    }
                    for i in 0..K {
                        let at = t + 1 + i as u64 % spread;
                        q.push(Time(at), payload_of(class, i as u8));
                        due[at as usize] += 1;
                    }
                    let cap = q.lane_capacity();
                    assert!(cap[0] <= 8 * K, "spread {spread}: {cap:?}");
                    let bound = q.buckets.iter().fold([0, 0], |[w, t], b| {
                        let held = |len: usize, chunk: usize| len + chunk * usize::from(len > 0);
                        [
                            w + held(b.wire.len(), WIRE_CHUNK),
                            t + held(b.timers.len(), Lane::<(HostId, u32)>::CHUNK),
                        ]
                    });
                    assert!(
                        cap[1] <= bound[0] && cap[2] <= bound[1],
                        "lane {lane}, spread {spread}, tick {t}: {cap:?} slots retained, bound {bound:?}"
                    );
                }
                assert!(q.buckets.len() as u64 > H, "the ring spans the horizon");
            }
        }
    }

    /// A compact encodable action stream for the equivalence property:
    /// interleaved pushes (time offset, payload class) and pops.
    fn arb_actions() -> impl Strategy<Value = Vec<(u16, u8, u8)>> {
        prop::collection::vec((0u16..2_000, 0u8..7, 0u8..2), 1..400)
    }

    /// Near-future bursts: each action pushes `copies` events `dt`
    /// ticks ahead, then pops up to `pops` — so a tick drains while the
    /// buckets ahead of it already hold events.
    fn arb_bursts() -> impl Strategy<Value = Vec<(u16, u8, u8, u8)>> {
        prop::collection::vec((0u16..4, 0u8..7, 1u8..24, 0u8..32), 1..120)
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
            5 => Payload::Timer {
                host: HostId(u32::from(tag)),
                key: u32::from(tag),
            },
            _ => Payload::Fanout {
                from: HostId(u32::from(tag)),
                targets: NO_SKIP,
                msg: tag,
                depth: fanout_targets(tag),
            },
        }
    }

    /// The target count of the property tests' fanout with this tag,
    /// carried in its `depth` so the popping side can retire it.
    fn fanout_targets(tag: u8) -> u32 {
        2 + u32::from(tag % 5)
    }

    /// Push `payload`, as the engine does: a fanout through
    /// `push_fanout` with its target count. Returns the deliveries the
    /// push adds to `len`.
    fn push(q: &mut EventQueue<u8>, at: Time, payload: Payload<u8>) -> usize {
        match payload {
            Payload::Fanout { depth, .. } => {
                q.push_fanout(at, payload, depth as usize);
                depth as usize
            }
            _ => {
                q.push(at, payload);
                1
            }
        }
    }

    /// Pop as the engine does, retiring a popped fanout's targets.
    /// Returns the event and the deliveries it takes off `len`.
    fn pop(q: &mut EventQueue<u8>) -> Option<((Time, Payload<u8>), usize)> {
        let (t, p) = q.pop()?;
        let n = match p {
            Payload::Fanout { depth, .. } => {
                q.retire_fanout(depth as usize);
                depth as usize
            }
            _ => 1,
        };
        Some(((t, p), n))
    }

    fn fingerprint(t: Time, p: &Payload<u8>) -> (u64, u8, u32, u8) {
        let (host, msg) = match *p {
            Payload::Fail(h) | Payload::Join(h) => (h.0, 0),
            Payload::ChurnPoll | Payload::OverlayPoll => (0, 0),
            Payload::Deliver { to, msg, .. } => (to.0, msg),
            Payload::Fanout { from, msg, .. } => (from.0, msg),
            Payload::Timer { host, key } => (host.0, key as u8),
        };
        (t.0, p.rank(), host, msg)
    }

    /// Replay `(dt, class, copies, pops)` actions against the bucketed
    /// queue and the heap oracle; both must emit the identical sequence,
    /// and `len` must count deliveries — a fanout one per target.
    fn check_against_oracle(actions: impl IntoIterator<Item = (u16, u8, u8, u8)>) {
        let mut bucket: EventQueue<u8> = EventQueue::new();
        let mut heap: EventQueue<u8> = EventQueue::heap_oracle();
        let mut pending = 0usize; // deliveries pushed and not yet popped
        let mut now = 0u64; // events may never be pushed in the past
        let mut tag = 0u8;
        for (dt, class, copies, pops) in actions {
            // Any class may target the instant being drained (in the
            // engine only tick-end timers do): each pop still takes the
            // least `(rank, seq)` left at the tick.
            let at = Time(now + u64::from(dt));
            for _ in 0..copies {
                tag = tag.wrapping_add(1);
                pending += push(&mut bucket, at, payload_of(class, tag));
                push(&mut heap, at, payload_of(class, tag));
            }
            assert_eq!(bucket.len(), pending);
            assert_eq!(heap.len(), pending);
            for _ in 0..pops {
                match (pop(&mut bucket), pop(&mut heap)) {
                    (Some(((bt, bp), n)), Some(((ht, hp), _))) => {
                        assert_eq!(fingerprint(bt, &bp), fingerprint(ht, &hp));
                        now = bt.0;
                        pending -= n;
                    }
                    (None, None) => {}
                    _ => panic!("one queue emptied before the other"),
                }
                assert_eq!(bucket.len(), pending);
                assert_eq!(heap.len(), pending);
            }
        }
        // Drain both to the end.
        loop {
            assert_eq!(bucket.peek_time(), heap.peek_time());
            match (pop(&mut bucket), pop(&mut heap)) {
                (Some(((bt, bp), _)), Some(((ht, hp), _))) => {
                    assert_eq!(fingerprint(bt, &bp), fingerprint(ht, &hp));
                }
                (None, None) => break,
                _ => panic!("one queue emptied before the other"),
            }
        }
        assert!(bucket.is_empty() && heap.is_empty());
    }

    /// What the first touch of a popped event is, as `ahead` names it;
    /// `None` for a control event, which `ahead` never names.
    fn touch_of(p: &Payload<u8>) -> Option<Touch> {
        match *p {
            Payload::Deliver { to, .. } => Some(Touch::Host(to)),
            Payload::Fanout { from, .. } => Some(Touch::Row(from)),
            Payload::Timer { host, .. } => Some(Touch::Host(host)),
            _ => None,
        }
    }

    /// How far past the next pop the lookahead property checks `ahead`:
    /// beyond the engine's distance, and far enough that a draining
    /// front chunk and the wire lane's end are crossed every few pops.
    const AHEAD_SPAN: usize = 24;

    /// Replay `(dt, class, copies, pops)` actions, every push at least
    /// one tick past the last pop (as the engine's sends are), after a
    /// prefix that fills tick 1's wire lane past two chunks and puts
    /// timers behind it. Returns every pop, and checks after each that
    /// `ahead(k)` names what the `k`-th next pop of the same tick
    /// touches first, using `expected`: the pop sequence of an earlier
    /// replay (empty on the first replay, which checks nothing).
    fn replay_ahead(
        actions: &[(u16, u8, u8, u8)],
        expected: &[(Time, Option<Touch>)],
    ) -> Vec<(Time, Option<Touch>)> {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut popped: Vec<(Time, Option<Touch>)> = Vec::new();
        let mut tag = 0u8;
        // Deliveries with every seventh a fanout, nine timers, and two
        // fails that pop first.
        let wire = (0..2 * WIRE_CHUNK + 5).map(|i| if i % 7 == 0 { 6 } else { 4 });
        for class in wire.chain([5; 9]).chain([0; 2]) {
            tag = tag.wrapping_add(1);
            push(&mut q, Time(1), payload_of(class, tag));
        }
        let mut now = 1u64;
        let mut pop_and_check = |q: &mut EventQueue<u8>, now: &mut u64| {
            let Some(((t, p), _)) = pop(q) else { return };
            *now = t.0;
            popped.push((t, touch_of(&p)));
            let i = popped.len() - 1;
            if expected.is_empty() {
                return;
            }
            let rest = &expected[i + 1..];
            let control_next = rest
                .first()
                .is_some_and(|&(at, touch)| at == t && touch.is_none());
            for k in 1..=AHEAD_SPAN {
                let want = match rest.get(k - 1) {
                    Some(&(at, touch)) if at == t && !control_next => touch,
                    _ => None,
                };
                assert_eq!(q.ahead(k), want, "pop {i} at {t:?}, k {k}");
            }
        };
        for &(dt, class, copies, pops) in actions {
            let at = Time(now + 1 + u64::from(dt));
            for _ in 0..copies {
                tag = tag.wrapping_add(1);
                push(&mut q, at, payload_of(class, tag));
            }
            for _ in 0..pops {
                pop_and_check(&mut q, &mut now);
            }
        }
        while !q.is_empty() {
            pop_and_check(&mut q, &mut now);
        }
        popped
    }

    #[test]
    fn ahead_reads_the_timer_lane_behind_the_wire_lane() {
        // Two deliveries, then two timers, at one tick: after the first
        // pop, the third next pop is the second timer, at index 1 of
        // the timer lane.
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(Time(1), payload_of(4, 1));
        q.push(Time(1), payload_of(4, 2));
        q.push(Time(1), payload_of(5, 3));
        q.push(Time(1), payload_of(5, 4));
        q.pop();
        assert_eq!(q.ahead(1), Some(Touch::Host(HostId(2))));
        assert_eq!(q.ahead(2), Some(Touch::Host(HostId(3))));
        assert_eq!(q.ahead(3), Some(Touch::Host(HostId(4))));
        assert_eq!(q.ahead(4), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lookahead the engine prefetches by: for any interleaving
        /// of pushes into the ticks ahead and pops, `ahead(k)` names the
        /// host the `k`-th next pop of the front tick touches first —
        /// across the wire lane's chunks, into the timer lane behind
        /// it, `None` past the tick's end and while a control event is
        /// due. A wrong answer changes no pop, so nothing else sees it.
        #[test]
        fn ahead_names_what_the_next_pops_touch(
            actions in prop::collection::vec((0u16..3, 0u8..7, 1u8..=255, 0u8..=255), 1..40),
        ) {
            let pops = replay_ahead(&actions, &[]);
            let again = replay_ahead(&actions, &pops);
            prop_assert_eq!(pops, again);
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

        /// The same bar under dense near-future bursts, so a tick's
        /// drained chunks routinely go to ticks that already hold
        /// events.
        #[test]
        fn bucket_queue_matches_heap_oracle_under_recycling(actions in arb_bursts()) {
            check_against_oracle(actions);
        }
    }
}
