//! The discrete-event core shared by every simulator front-end
//! (`hpfq-sim`'s packet network, `hpfq-fluid`'s fluid server, and the
//! chaos soak harness).
//!
//! Event storage, ordering, and clock discipline exist exactly once, here:
//!
//! * **Deterministic ordering** — events fire in `(time, seq)` order, where
//!   `seq` is the scheduling sequence number. Ties in time therefore fire
//!   in the order they were scheduled (FIFO), which is what makes whole
//!   simulation traces byte-reproducible across runs and platforms.
//! * **Bounded memory** — events live in a slot arena; a fired slot goes
//!   onto a free list and is reused. Memory is bounded by the maximum
//!   number of *outstanding* events, not the total ever scheduled.
//! * **Monotone clock** — [`Engine`] owns `now` and only advances it by
//!   popping events. Scheduling into the past is clamped to `now` (and
//!   flagged in debug builds), so a buggy client degrades to "fires
//!   immediately" instead of corrupting the order.
//!
//! The crate is dependency-free and knows nothing about packets or
//! scheduling policies: `E` is whatever event enum the client defines.
//!
//! # Minor keys and parallel determinism
//!
//! [`EventQueue::schedule_keyed`] accepts a caller-supplied **minor key**
//! ordered between the time and the FIFO sequence: events fire in
//! `(time, minor, seq)` order. A client that derives the minor key from
//! event *content* (rather than scheduling order) gets a tie-break that is
//! a pure function of the event itself — the property a conservative
//! parallel simulator needs to reproduce a sequential run exactly, because
//! per-shard sequence numbers cannot match the global ones. Plain
//! [`EventQueue::schedule`] uses minor key 0, so single-keyed clients keep
//! the original `(time, seq)` FIFO semantics unchanged.
//!
//! The epoch/window API ([`Engine::pop_strictly_before`],
//! [`Engine::advance_to`], [`EventQueue::pop_entry`]) supports
//! conservative-epoch execution: a worker drains events with
//! `t < epoch_end` only, the coordinator advances the clock across empty
//! windows, and whole queues can be drained (keys included) when shards
//! are assembled or merged.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Min-heap key: time, then the caller's minor key, then scheduling
/// sequence for FIFO tie-breaking.
#[derive(Debug, PartialEq)]
struct Key(f64, u64, u64);

impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // total_cmp never panics; schedule() only accepts finite times, so
        // the NaN ordering arm is unreachable anyway.
        self.0
            .total_cmp(&other.0)
            .then(self.1.cmp(&other.1))
            .then(self.2.cmp(&other.2))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking and arena-backed
/// storage. The queue has no notion of "now" — pair it with [`Engine`]
/// for the usual clocked event loop, or drive it directly if the client
/// owns the clock (segmented runs, co-simulation).
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Key, usize)>>,
    /// Event arena. Fired slots are pushed onto `free` and reused, so
    /// memory is bounded by the maximum number of *outstanding* events,
    /// not the total ever scheduled.
    arena: Vec<Option<E>>,
    free: Vec<usize>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `ev` at time `t` with minor key 0. Callers must pass
    /// finite times (debug-asserted); the `total_cmp` key ordering keeps
    /// the heap consistent even if a non-finite time slips through in
    /// release.
    pub fn schedule(&mut self, t: f64, ev: E) {
        self.schedule_keyed(t, 0, ev);
    }

    /// Schedules `ev` at time `t` with an explicit minor tie-break key.
    /// Events fire in `(t, minor, scheduling order)` order; clients that
    /// derive `minor` from event content get execution-order-independent
    /// tie-breaking (see the crate docs on parallel determinism).
    pub fn schedule_keyed(&mut self, t: f64, minor: u64, ev: E) {
        debug_assert!(t.is_finite(), "non-finite event time {t}");
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.arena[slot].is_none(), "free slot still occupied");
                self.arena[slot] = Some(ev);
                slot
            }
            None => {
                self.arena.push(Some(ev));
                self.arena.len() - 1
            }
        };
        self.heap.push(Reverse((Key(t, minor, self.seq), slot)));
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse((Key(t, _, _), _))| *t)
    }

    /// Time and minor key of the earliest pending event. The pair is the
    /// content-derived part of the firing order, so epoch supervisors can
    /// compare queue heads against a global cut key without popping.
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.heap.peek().map(|Reverse((Key(t, m, _), _))| (*t, *m))
    }

    /// Removes and returns the earliest event and its time. Ties fire in
    /// `(minor, scheduling order)` order.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_entry().map(|(t, _, ev)| (t, ev))
    }

    /// Removes and returns the earliest event along with its time and
    /// minor key. Used when draining one queue into another (shard
    /// assembly/merge) where the minor keys must survive the transfer.
    pub fn pop_entry(&mut self) -> Option<(f64, u64, E)> {
        while let Some(Reverse((Key(t, minor, _), slot))) = self.heap.pop() {
            // Each heap entry owns its arena slot until fired; a vacated
            // slot (impossible today, tolerated for robustness) is skipped.
            if let Some(ev) = self.arena[slot].take() {
                self.free.push(slot);
                return Some((t, minor, ev));
            }
        }
        None
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Outstanding (scheduled, unfired) events — exposed for capacity
    /// diagnostics and the arena-reuse tests.
    pub fn outstanding(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    /// Size of the event arena (high-water mark of outstanding events).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

/// [`EventQueue`] plus the simulation clock: the standard event-loop
/// driver. Clients pump it themselves —
///
/// ```ignore
/// while let Some((t, ev)) = engine.pop_due(horizon) {
///     match ev { /* ... may call engine.schedule(...) ... */ }
/// }
/// ```
///
/// — so event handling can borrow the rest of the client's state freely.
#[derive(Debug, Default)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: f64,
}

impl<E> Engine<E> {
    /// An engine at time 0 with no events.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `ev` at `max(t, now)`: the engine clock never runs
    /// backwards, so a request into the past fires immediately instead.
    /// Debug builds flag such requests beyond float-rounding slack.
    pub fn schedule(&mut self, t: f64, ev: E) {
        self.schedule_keyed(t, 0, ev);
    }

    /// [`Engine::schedule`] with an explicit minor tie-break key (see
    /// [`EventQueue::schedule_keyed`]).
    pub fn schedule_keyed(&mut self, t: f64, minor: u64, ev: E) {
        debug_assert!(
            // lint:allow(L003): hpfq-events is dependency-free by design and
            // cannot import `vtime::EPS`; this debug-only relative slack
            // guards the clock monotonicity assert, not a virtual-time compare
            t >= self.now - 1e-9 * self.now.abs().max(1.0),
            "scheduling into the past: {t} < {}",
            self.now
        );
        self.queue.schedule_keyed(t.max(self.now), minor, ev);
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Time and minor key of the earliest pending event (see
    /// [`EventQueue::peek_key`]).
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.queue.peek_key()
    }

    /// Pops the earliest event if it is due at or before `horizon`,
    /// advancing the clock to its time. Events strictly after the horizon
    /// stay queued, so a later call with a larger horizon continues
    /// cleanly (segmented runs).
    pub fn pop_due(&mut self, horizon: f64) -> Option<(f64, E)> {
        if self.queue.peek_time()? > horizon {
            return None;
        }
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        Some((t, ev))
    }

    /// Pops the earliest event if its time is **strictly** before `end`,
    /// advancing the clock to its time. This is the conservative-epoch
    /// window pop: an epoch `[T, T+W)` drains events with `t < T+W` only,
    /// leaving everything at or past the epoch boundary for later epochs
    /// (after cross-shard messages for that boundary have been exchanged).
    pub fn pop_strictly_before(&mut self, end: f64) -> Option<(f64, E)> {
        if self.queue.peek_time()? >= end {
            return None;
        }
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        Some((t, ev))
    }

    /// Advances the clock to `t` without popping anything. Used by epoch
    /// drivers to jump across empty windows so that `schedule` calls made
    /// between epochs are clamped against the epoch start, not a stale
    /// clock. Moving backwards is a no-op (the clock stays monotone).
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Sets the clock to `t` unconditionally — the *restore* path. Unlike
    /// [`Engine::advance_to`], this may move the clock backwards: a
    /// checkpoint rollback rebuilds queue contents from a snapshot taken
    /// at an earlier time, and subsequent `schedule` calls must be clamped
    /// against the checkpoint's clock, not the failed run's. Callers must
    /// restore the clock *before* rescheduling snapshot events, or the
    /// `max(t, now)` clamp would drag them forward.
    pub fn reset_to(&mut self, t: f64) {
        debug_assert!(t.is_finite(), "non-finite clock {t}");
        self.now = t;
    }

    /// Drains every pending event in `(time, minor, seq)` order, returning
    /// `(time, minor, event)` triples. Used to redistribute a queue across
    /// shards and to fold shard leftovers back into the master engine.
    pub fn drain_ordered(&mut self) -> Vec<(f64, u64, E)> {
        let mut out = Vec::with_capacity(self.queue.outstanding());
        while let Some(entry) = self.queue.pop_entry() {
            out.push(entry);
        }
        out
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Outstanding (scheduled, unfired) events.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// Size of the event arena (high-water mark of outstanding events).
    pub fn arena_len(&self) -> usize {
        self.queue.arena_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_ties_stay_fifo() {
        // Ties scheduled across pops must still respect scheduling order
        // among themselves.
        let mut q = EventQueue::new();
        q.schedule(1.0, 0);
        q.schedule(1.0, 1);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.schedule(1.0, 2);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
    }

    #[test]
    fn arena_reuses_fired_slots() {
        let mut q = EventQueue::new();
        for round in 0..1000 {
            q.schedule(round as f64, round);
            q.schedule(round as f64 + 0.5, round);
            assert_eq!(q.pop().map(|(_, e)| e), Some(round));
            assert_eq!(q.pop().map(|(_, e)| e), Some(round));
        }
        assert!(q.arena_len() <= 2, "arena grew to {}", q.arena_len());
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn engine_advances_clock_and_respects_horizon() {
        let mut e = Engine::new();
        e.schedule(1.0, "a");
        e.schedule(5.0, "b");
        assert_eq!(e.pop_due(2.0), Some((1.0, "a")));
        assert_eq!(e.now(), 1.0);
        // b is past the horizon: stays queued.
        assert_eq!(e.pop_due(2.0), None);
        assert_eq!(e.now(), 1.0);
        assert_eq!(e.outstanding(), 1);
        // A later segment picks it up.
        assert_eq!(e.pop_due(10.0), Some((5.0, "b")));
        assert_eq!(e.now(), 5.0);
        assert_eq!(e.pop_due(10.0), None);
        assert!(e.is_empty());
    }

    #[test]
    fn engine_clamps_past_times_to_now() {
        let mut e = Engine::new();
        e.schedule(2.0, "late");
        assert_eq!(e.pop_due(10.0), Some((2.0, "late")));
        // Requesting t=2.0 at now=2.0 (a zero-delay follow-up) is legal
        // and fires at now.
        e.schedule(2.0, "follow-up");
        assert_eq!(e.pop_due(10.0), Some((2.0, "follow-up")));
    }

    #[test]
    fn minor_keys_order_ties_before_seq() {
        let mut q = EventQueue::new();
        // Scheduled in an order deliberately different from the minor-key
        // order: ties in time must fire by minor key, then FIFO.
        q.schedule_keyed(1.0, 5, "e");
        q.schedule_keyed(1.0, 2, "b");
        q.schedule_keyed(1.0, 2, "c");
        q.schedule_keyed(1.0, 0, "a");
        q.schedule_keyed(0.5, 9, "first");
        assert_eq!(q.pop(), Some((0.5, "first")));
        assert_eq!(q.pop_entry(), Some((1.0, 0, "a")));
        assert_eq!(q.pop_entry(), Some((1.0, 2, "b")));
        assert_eq!(q.pop_entry(), Some((1.0, 2, "c")));
        assert_eq!(q.pop_entry(), Some((1.0, 5, "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn plain_schedule_keeps_fifo_semantics() {
        // schedule() is schedule_keyed(minor = 0): mixing it with keyed
        // events must keep plain events ahead of any positive minor key.
        let mut q = EventQueue::new();
        q.schedule_keyed(1.0, 7, "keyed");
        q.schedule(1.0, "plain1");
        q.schedule(1.0, "plain2");
        assert_eq!(q.pop(), Some((1.0, "plain1")));
        assert_eq!(q.pop(), Some((1.0, "plain2")));
        assert_eq!(q.pop(), Some((1.0, "keyed")));
    }

    #[test]
    fn pop_strictly_before_excludes_boundary() {
        let mut e = Engine::new();
        e.schedule(1.0, "in");
        e.schedule(2.0, "boundary");
        assert_eq!(e.pop_strictly_before(2.0), Some((1.0, "in")));
        assert_eq!(e.pop_strictly_before(2.0), None);
        assert_eq!(e.outstanding(), 1);
        // pop_due is inclusive; the boundary event is still reachable.
        assert_eq!(e.pop_due(2.0), Some((2.0, "boundary")));
    }

    #[test]
    fn advance_to_is_monotone_and_clamps_schedules() {
        let mut e = Engine::new();
        e.advance_to(5.0);
        assert_eq!(e.now(), 5.0);
        e.advance_to(3.0); // backwards: no-op
        assert_eq!(e.now(), 5.0);
        e.schedule(5.0, "at-now");
        assert_eq!(e.pop_due(10.0), Some((5.0, "at-now")));
    }

    #[test]
    fn drain_ordered_preserves_keys() {
        let mut e = Engine::new();
        e.schedule_keyed(2.0, 1, "c");
        e.schedule_keyed(1.0, 9, "b");
        e.schedule_keyed(1.0, 3, "a");
        let drained = e.drain_ordered();
        assert_eq!(drained, vec![(1.0, 3, "a"), (1.0, 9, "b"), (2.0, 1, "c")]);
        assert!(e.is_empty());
        // Re-scheduling the drained entries reproduces the same order.
        for (t, minor, ev) in drained {
            e.schedule_keyed(t, minor, ev);
        }
        assert_eq!(e.pop_due(10.0), Some((1.0, "a")));
    }

    #[test]
    fn peek_key_exposes_time_and_minor() {
        let mut e = Engine::new();
        assert_eq!(e.peek_key(), None);
        e.schedule_keyed(2.0, 7, "later");
        e.schedule_keyed(1.0, 4, "sooner");
        assert_eq!(e.peek_key(), Some((1.0, 4)));
        assert_eq!(e.pop_due(10.0), Some((1.0, "sooner")));
        assert_eq!(e.peek_key(), Some((2.0, 7)));
    }

    #[test]
    fn reset_to_allows_backward_clock_for_restore() {
        let mut e = Engine::new();
        e.schedule(1.0, "a");
        assert_eq!(e.pop_due(10.0), Some((1.0, "a")));
        assert_eq!(e.now(), 1.0);
        // Rollback: clock returns to 0.25 and re-scheduled snapshot events
        // keep their original times instead of being clamped to 1.0.
        e.reset_to(0.25);
        assert_eq!(e.now(), 0.25);
        e.schedule_keyed(0.5, 3, "replayed");
        assert_eq!(e.pop_due(10.0), Some((0.5, "replayed")));
        assert_eq!(e.now(), 0.5);
    }

    #[test]
    fn peek_matches_pop() {
        let mut e = Engine::new();
        e.schedule(0.25, 1u32);
        e.schedule(0.125, 2u32);
        assert_eq!(e.peek_time(), Some(0.125));
        assert_eq!(e.pop_due(f64::INFINITY), Some((0.125, 2)));
        assert_eq!(e.peek_time(), Some(0.25));
    }
}
