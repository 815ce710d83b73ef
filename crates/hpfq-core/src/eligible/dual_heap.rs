//! Dual-heap eligible set: the structure used by production WF²Q+
//! implementations.
//!
//! Sessions whose start tag exceeds the highest threshold seen so far live
//! in a *pending* min-heap ordered by start tag; the rest live in a *ready*
//! min-heap ordered by finish tag. Each [`EligibleSet::pop_min_finish`] call
//! first migrates every pending session whose start tag is within the
//! threshold, then pops the ready heap. Since virtual time (and hence the
//! thresholds) is monotone within a busy period, each session migrates at
//! most once per backlog episode, giving amortized O(log N) per operation.
//!
//! Removal is lazy *for the heaps*: heap entries carry a per-session
//! generation number, [`EligibleSet::remove`] bumps it, and stale entries
//! are skipped on pop. The monotone tail is instead pruned physically on
//! the (cold) remove path, so the per-packet tail pop never touches the
//! generation array. Pops remove entries physically everywhere, so neither
//! insertion nor popping needs a generation bump.
//!
//! The per-session bookkeeping is laid out structure-of-arrays: membership
//! state, start tags, finish tags, and secondary ranks live in parallel
//! `Vec`s indexed by session id, and a heap entry carries only its ordering
//! key pair plus a narrowed `(id, generation)` word. Sift operations
//! therefore move 24-byte entries instead of 48-byte ones, and the migrate loop's start-tag scan
//! walks a dense `f64` array — the hot-path layout the scaling sweep in
//! `hpfq-bench` measures.
//!
//! Besides the [`EligibleSet`] trait (start/finish tags, ties by session
//! id), the set exposes a generalized *ranked* interface for the PIFO
//! substrate ([`crate::pifo`]): [`PifoBackend::insert_ranked`]
//! takes an optional eligibility key (absent = immediately eligible, as in
//! the un-gated policies WFQ/SCFQ/SFQ/FIFO/DRR) and a `(primary,
//! secondary)` rank pair ordered lexicographically with ties broken by
//! session id — exactly the `tag_heap` order, so both hand-rolled backing
//! structures collapse onto this one.
//!
//! Immediately-eligible inserts whose ranks arrive in nondecreasing order
//! append to a sorted *monotone tail* deque instead of the ready heap
//! (pops take the smaller of the two fronts). Ring disciplines — FIFO
//! offer order, DRR rotation — emit exactly such monotone sequence ranks,
//! so their steady-state cost stays O(1) per operation, matching the
//! `VecDeque` rings of the hand-rolled schedulers they replace.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use super::{EligibleSet, PifoBackend};
use crate::scheduler::SessionId;
use crate::vtime;

/// Heap entry; ordering is inverted so `BinaryHeap` (a max-heap) acts as a
/// min-heap on `(key, secondary, id)`. The key is the eligibility (start)
/// tag in the pending heap — where `secondary` is held at 0 — and the
/// primary (finish) rank in the ready heap; the id tie-break reproduces the
/// session-index order of the paper's Fig. 2 timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    key: f64,
    secondary: f64,
    /// Session id, narrowed to keep the entry at 24 bytes (the driver
    /// registers sessions up front; more than `u32::MAX` of them would
    /// exhaust memory long before the narrowing matters).
    id: u32,
    generation: u32,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smaller (key, secondary, id) is "greater" for the heap.
        let lhs = (other.key, other.secondary, other.id);
        let rhs = (self.key, self.secondary, self.id);
        lhs.partial_cmp(&rhs)
            // lint:allow(L002): insert() asserts finite tags — total order
            .expect("tags must not be NaN (asserted on insert)")
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Membership state only — the tags live in the parallel `starts` /
/// `finishes` arrays, so this stays a one-byte fieldless enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Absent,
    Pending,
    Ready,
}

/// See the [module documentation](self).
#[derive(Debug, Default, Clone)]
pub struct DualHeapEligibleSet {
    /// Min-heap on start tag of not-yet-eligible sessions.
    pending: BinaryHeap<Entry>,
    /// Min-heap on finish tag of eligible sessions.
    ready: BinaryHeap<Entry>,
    /// Sorted monotone tail of the eligible set: immediately-eligible
    /// inserts whose `(key, secondary, id)` rank is >= the current back
    /// land here in O(1). Pops compare this front against the ready heap's
    /// top, so the union still pops in global rank order.
    ready_tail: VecDeque<Entry>,
    /// Per-session membership state, indexed by session id.
    state: Vec<Slot>,
    /// Per-session start tags (valid while `state` is not `Absent`).
    starts: Vec<f64>,
    /// Per-session finish tags (valid while `state` is not `Absent`).
    finishes: Vec<f64>,
    /// Per-session generation counters invalidating stale heap entries.
    generations: Vec<u32>,
    /// Number of stale (generation-mismatched) entries still parked in the
    /// two heaps. Membership count is derived (`len()` subtracts this from
    /// the container sizes), so the per-packet insert/pop paths never
    /// maintain a live counter.
    stale: usize,
}

impl DualHeapEligibleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the per-session arrays for ids `< n` so the ranked hot
    /// path can skip the bounds-growth check (the driver registers every
    /// session before scheduling starts).
    pub(crate) fn ensure_sessions(&mut self, n: usize) {
        if n > 0 {
            self.ensure(SessionId(n - 1));
        }
    }

    fn ensure(&mut self, id: SessionId) {
        if id.0 >= self.state.len() {
            self.state.resize(id.0 + 1, Slot::Absent);
            self.starts.resize(id.0 + 1, 0.0);
            self.finishes.resize(id.0 + 1, 0.0);
            self.generations.resize(id.0 + 1, 0);
            debug_assert!(
                id.0 <= u32::MAX as usize,
                "session id overflows entry narrowing"
            );
        }
    }

    /// Inserts a member under the generalized PIFO rank model: an optional
    /// eligibility key (`None` = immediately eligible — the member goes
    /// straight to the ready heap, like a `tag_heap` push) and a
    /// lexicographic `(primary, secondary)` rank pair, ties by session id.
    ///
    /// [`EligibleSet::insert`] is the `(Some(start), finish, 0.0)` special
    /// case; the monotone-threshold contract of
    /// [`EligibleSet::pop_min_finish`] applies to eligibility keys exactly
    /// as it does to start tags. Gated inserts order the pending heap by
    /// `(eligibility, secondary, id)`; every in-tree gated rank carries a
    /// zero secondary, reproducing the hand-rolled `(start, id)` order.
    ///
    /// This is the per-packet hot path of the PIFO substrate, so the rank
    /// validity checks (finite, not already a member) are debug assertions;
    /// the trait method keeps its release-mode tag assertion.
    #[inline]
    pub(crate) fn insert_ranked(
        &mut self,
        id: SessionId,
        elig: Option<f64>,
        primary: f64,
        secondary: f64,
    ) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite() && elig.is_none_or(f64::is_finite),
            "bad rank ({elig:?}, {primary}, {secondary}) for session {id:?}"
        );
        debug_assert!(
            id.0 < self.state.len(),
            "session {id:?} not registered via ensure_sessions"
        );
        debug_assert_eq!(
            self.state[id.0],
            Slot::Absent,
            "session {id:?} inserted twice"
        );
        // No generation bump: a member leaves either by pop (entry removed
        // physically, nothing left to invalidate) or by remove() (which
        // bumps). The current generation is always newer than any stale
        // heap entry this id may have left behind.
        let generation = self.generations[id.0];
        match elig {
            Some(start) => {
                self.state[id.0] = Slot::Pending;
                self.starts[id.0] = start;
                self.finishes[id.0] = primary;
                self.pending.push(Entry {
                    key: start,
                    secondary,
                    id: id.0 as u32,
                    generation,
                });
            }
            None => {
                self.state[id.0] = Slot::Ready;
                let e = Entry {
                    key: primary,
                    secondary,
                    id: id.0 as u32,
                    generation,
                };
                // Monotone tail: a rank >= the current back appends in
                // O(1); only out-of-order ranks pay the heap's O(log N).
                match self.ready_tail.back() {
                    Some(b) if (e.key, e.secondary, e.id) < (b.key, b.secondary, b.id) => {
                        self.ready.push(e);
                    }
                    _ => self.ready_tail.push_back(e),
                }
            }
        }
    }

    /// Ring-discipline insert: the caller promises (via
    /// [`crate::pifo::RankProgram::MONOTONE_RANKS`]) that every rank is
    /// open and is either >= everything queued (a fresh sequence value —
    /// the common case, appended to the tail back) or <= everything queued
    /// (a re-offered front, e.g. DRR's in-deficit continuation — pushed
    /// back onto the tail front). Either way the tail stays sorted and the
    /// heaps stay empty, so [`Self::pop_monotone`] is a single deque pop.
    #[inline]
    pub(crate) fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite(),
            "bad rank ({primary}, {secondary}) for session {id:?}"
        );
        debug_assert!(
            id.0 < self.state.len(),
            "session {id:?} not registered via ensure_sessions"
        );
        debug_assert_eq!(
            self.state[id.0],
            Slot::Absent,
            "session {id:?} inserted twice"
        );
        let e = Entry {
            key: primary,
            secondary,
            id: id.0 as u32,
            // Tail entries' generation is never read (tail pops skip the
            // check, remove() prunes physically by id), so skip the load.
            generation: 0,
        };
        // The membership byte is only read by EligibleSet::remove(), which
        // the PIFO driver — the sole caller of the monotone interface —
        // never uses; keep it consistent for the debug assertions only.
        #[cfg(debug_assertions)]
        {
            self.state[id.0] = Slot::Ready;
        }
        match self.ready_tail.back() {
            Some(b) if (e.key, e.secondary, e.id) < (b.key, b.secondary, b.id) => {
                debug_assert!(
                    self.ready_tail
                        .front()
                        .is_none_or(|f| (e.key, e.secondary, e.id) <= (f.key, f.secondary, f.id)),
                    "MONOTONE_RANKS violated: rank between the tail front and back"
                );
                self.ready_tail.push_front(e);
            }
            _ => self.ready_tail.push_back(e),
        }
    }

    /// Pop for `MONOTONE_RANKS` programs: the heaps are provably empty (no
    /// gated or out-of-order insert ever happened), so the minimum rank is
    /// the tail front — one deque pop, exactly a hand-rolled ring.
    #[inline]
    pub(crate) fn pop_monotone(&mut self) -> Option<SessionId> {
        debug_assert!(
            self.pending.is_empty() && self.ready.is_empty(),
            "MONOTONE_RANKS program has heap entries"
        );
        let top = self.ready_tail.pop_front()?;
        debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
        // Debug-only for the same reason as in push_monotone.
        #[cfg(debug_assertions)]
        {
            self.state[top.id as usize] = Slot::Absent;
        }
        Some(SessionId(top.id as usize))
    }

    /// Pops the member with the minimum `(primary, secondary, id)` rank
    /// regardless of eligibility keys — the un-gated companion of
    /// [`EligibleSet::pop_min_finish`], used by rank programs whose
    /// [`crate::pifo::Threshold::All`] admits every member.
    pub(crate) fn pop_min_ranked(&mut self) -> Option<SessionId> {
        // Admit everything: members inserted with an eligibility key still
        // participate (a custom rank program may mix gated and un-gated
        // ranks); for purely un-gated programs `pending` is empty and this
        // is a single peek.
        EligibleSet::pop_min_finish(self, f64::INFINITY)
    }

    /// Drops stale entries from the top of `pending` and migrates every
    /// current entry with `start <= thr` into `ready`.
    fn migrate(&mut self, thr: f64) {
        while let Some(top) = self.pending.peek().copied() {
            if self.generations[top.id as usize] != top.generation {
                self.pending.pop();
                self.stale -= 1;
                continue;
            }
            // Exact: the threshold derives from the same tag arithmetic, and
            // blurring it would migrate sessions early and reorder dispatch.
            if vtime::exactly_lt(thr, top.key) {
                break;
            }
            self.pending.pop();
            debug_assert_eq!(self.state[top.id as usize], Slot::Pending);
            debug_assert_eq!(self.starts[top.id as usize], top.key);
            self.state[top.id as usize] = Slot::Ready;
            self.ready.push(Entry {
                key: self.finishes[top.id as usize],
                secondary: top.secondary,
                id: top.id,
                generation: top.generation,
            });
        }
    }

    /// Minimum start tag among pending members, pruning stale entries.
    fn pending_min_start(&mut self) -> Option<f64> {
        while let Some(top) = self.pending.peek().copied() {
            if self.generations[top.id as usize] == top.generation {
                return Some(top.key);
            }
            self.pending.pop();
            self.stale -= 1;
        }
        None
    }

    /// Live minimum of the ready heap, pruning stale tops.
    #[inline]
    fn live_heap_top(&mut self) -> Option<Entry> {
        while let Some(top) = self.ready.peek().copied() {
            if self.generations[top.id as usize] == top.generation {
                return Some(top);
            }
            self.ready.pop();
            self.stale -= 1;
        }
        None
    }

    /// Front of the monotone tail. Always live: remove() prunes the tail
    /// physically, so tail entries never go stale.
    #[inline]
    fn live_tail_front(&mut self) -> Option<Entry> {
        self.ready_tail.front().copied()
    }

    /// Whether any live member is eligible (ready heap or monotone tail).
    fn ready_nonempty(&mut self) -> bool {
        self.live_heap_top().is_some() || self.live_tail_front().is_some()
    }

    /// Snapshot of the live membership as re-insertable `(id, elig,
    /// primary, secondary)` ranks: eligible members first, sorted by rank
    /// and saved *open* (they were already admitted, and thresholds are
    /// monotone within a busy period, so unconditional re-admission is
    /// behavior-identical), then gated members with their eligibility
    /// keys. Replaying the list through [`Self::insert_ranked`] in order
    /// reproduces the structure — ring-discipline members re-form the pure
    /// monotone tail because they arrive open and sorted. Stale heap
    /// entries are skipped.
    pub(crate) fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        let live = |e: &Entry| self.generations[e.id as usize] == e.generation;
        let mut open: Vec<&Entry> = self.ready.iter().filter(|e| live(e)).collect();
        open.extend(self.ready_tail.iter());
        open.sort_by(|a, b| {
            (a.key, a.secondary, a.id)
                .partial_cmp(&(b.key, b.secondary, b.id))
                // lint:allow(L002): cold snapshot path; ranks are finite
                .expect("ranks must not be NaN")
        });
        let mut out: Vec<(SessionId, Option<f64>, f64, f64)> = open
            .iter()
            .map(|e| (SessionId(e.id as usize), None, e.key, e.secondary))
            .collect();
        for e in self.pending.iter().filter(|e| live(e)) {
            out.push((
                SessionId(e.id as usize),
                Some(e.key),
                self.finishes[e.id as usize],
                e.secondary,
            ));
        }
        out
    }
}

impl EligibleSet for DualHeapEligibleSet {
    fn insert(&mut self, id: SessionId, start: f64, finish: f64) {
        assert!(
            start.is_finite() && finish.is_finite() && vtime::exactly_le(start, finish),
            "bad tags ({start}, {finish}) for session {id:?}"
        );
        self.ensure(id);
        self.insert_ranked(id, Some(start), finish, 0.0);
    }

    fn remove(&mut self, id: SessionId) {
        self.ensure(id);
        if self.state[id.0] != Slot::Absent {
            self.state[id.0] = Slot::Absent;
            self.generations[id.0] += 1; // invalidates any heap entry
                                         // The monotone tail is never lazily pruned (its per-packet pop
                                         // skips the generation check), so delete physically here on
                                         // the cold path. A member not in the tail lives in one of the
                                         // heaps: its entry just went stale under the generation bump.
            if let Some(pos) = self.ready_tail.iter().position(|e| e.id as usize == id.0) {
                self.ready_tail.remove(pos);
            } else {
                self.stale += 1;
            }
        }
    }

    fn eligibility_threshold(&mut self, v: f64) -> Option<f64> {
        if EligibleSet::len(self) == 0 {
            return None;
        }
        // Any ready member has start <= some earlier threshold <= v
        // (thresholds are monotone within a busy period), so Smin <= v and
        // the clamp is v itself. Otherwise Smin is the pending minimum.
        if self.ready_nonempty() {
            Some(v)
        } else {
            let smin = self
                .pending_min_start()
                // len() > 0 and ready is empty, so pending holds at least
                // one current-generation entry.
                .expect("live members must be in a heap");
            Some(v.max(smin))
        }
    }

    #[inline]
    fn pop_min_finish(&mut self, thr: f64) -> Option<SessionId> {
        self.migrate(thr);
        // Ring-discipline fast path: everything lives in the monotone tail
        // (FIFO/DRR steady state), so a pop is one deque front like the
        // hand-rolled rings — tail entries are always live (see remove()), so
        // no generation check either.
        if self.ready.is_empty() {
            let top = self.ready_tail.pop_front()?;
            debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
            self.state[top.id as usize] = Slot::Absent;
            return Some(SessionId(top.id as usize));
        }
        let take_tail = match (self.live_heap_top(), self.live_tail_front()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(h), Some(t)) => (t.key, t.secondary, t.id) < (h.key, h.secondary, h.id),
        };
        let top = if take_tail {
            self.ready_tail.pop_front()
        } else {
            self.ready.pop()
        };
        // Unreachable (both fronts were just pruned live), kept panic-free.
        let top = top?;
        debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
        self.state[top.id as usize] = Slot::Absent;
        Some(SessionId(top.id as usize))
    }

    fn len(&self) -> usize {
        // Derived rather than maintained: every container entry is a live
        // member except the heap entries orphaned by remove().
        self.pending.len() + self.ready.len() + self.ready_tail.len() - self.stale
    }

    fn clear(&mut self) {
        self.pending.clear();
        self.ready.clear();
        self.ready_tail.clear();
        self.state.fill(Slot::Absent);
        // Bump generations rather than zeroing so pre-clear entries can
        // never be mistaken for live ones.
        for g in &mut self.generations {
            *g += 1;
        }
        self.stale = 0;
    }
}

/// The PIFO-backend view: straight delegation to the inherent ranked
/// interface (these methods *are* the trait's reference semantics).
impl PifoBackend for DualHeapEligibleSet {
    fn backend_name(&self) -> &'static str {
        "dual-heap"
    }

    #[inline]
    fn ensure_sessions(&mut self, n: usize) {
        DualHeapEligibleSet::ensure_sessions(self, n);
    }

    #[inline]
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        DualHeapEligibleSet::insert_ranked(self, id, elig, primary, secondary);
    }

    #[inline]
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        DualHeapEligibleSet::push_monotone(self, id, primary, secondary);
    }

    #[inline]
    fn pop_monotone(&mut self) -> Option<SessionId> {
        DualHeapEligibleSet::pop_monotone(self)
    }

    #[inline]
    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        DualHeapEligibleSet::pop_min_ranked(self)
    }

    #[inline]
    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        EligibleSet::eligibility_threshold(self, v)
    }

    #[inline]
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        EligibleSet::pop_min_finish(self, thr)
    }

    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        DualHeapEligibleSet::members_in_order(self)
    }

    #[inline]
    fn members(&self) -> usize {
        EligibleSet::len(self)
    }

    fn reset(&mut self) {
        EligibleSet::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_module_example() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 2.0, 5.0);
        s.insert(SessionId(1), 0.0, 9.0);
        s.insert(SessionId(2), 0.5, 3.0);
        assert_eq!(s.eligibility_threshold(1.0), Some(1.0));
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(1.0), None);
        assert_eq!(s.eligibility_threshold(1.0), Some(2.0));
        assert_eq!(s.pop_min_finish(2.0), Some(SessionId(0)));
        assert!(s.is_empty());
    }

    #[test]
    fn reinsertion_after_pop() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(4), 0.0, 1.0);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(4)));
        s.insert(SessionId(4), 1.0, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(4)));
    }

    #[test]
    fn remove_is_lazy_but_correct() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(1), 0.0, 2.0);
        s.remove(SessionId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(0.0), None);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop_min_finish(10.0), None);
        s.insert(SessionId(0), 5.0, 6.0);
        assert_eq!(s.eligibility_threshold(0.0), Some(5.0));
        assert_eq!(s.pop_min_finish(5.0), Some(SessionId(0)));
    }

    #[test]
    fn heap_entry_stays_small() {
        // The point of the SoA split: sift operations move (key, secondary,
        // id, generation) only. Guard against fields creeping back in.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn ranked_insert_orders_by_primary_then_secondary_then_id() {
        // SCFQ's tag_heap order: (finish, start, id).
        let mut s = DualHeapEligibleSet::new();
        s.ensure_sessions(4);
        s.insert_ranked(SessionId(0), None, 4.0, 2.0);
        s.insert_ranked(SessionId(1), None, 4.0, 1.0);
        s.insert_ranked(SessionId(3), None, 4.0, 1.0);
        s.insert_ranked(SessionId(2), None, 3.0, 9.0);
        assert_eq!(s.pop_min_ranked(), Some(SessionId(2)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(1)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(3)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(0)));
        assert_eq!(s.pop_min_ranked(), None);
    }

    #[test]
    fn pop_min_ranked_admits_gated_members() {
        let mut s = DualHeapEligibleSet::new();
        s.ensure_sessions(2);
        s.insert_ranked(SessionId(0), Some(10.0), 12.0, 0.0);
        s.insert_ranked(SessionId(1), None, 15.0, 0.0);
        // Ungated pop ignores eligibility: session 0's smaller primary wins
        // even though its eligibility key is far in the future.
        assert_eq!(s.pop_min_ranked(), Some(SessionId(0)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(1)));
    }

    #[test]
    fn finish_ties_break_by_session_id() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(3), 0.0, 4.0);
        s.insert(SessionId(1), 0.0, 4.0);
        s.insert(SessionId(2), 0.0, 4.0);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(3)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    #[cfg(debug_assertions)] // the double-insert check is a debug_assert
    fn double_insert_panics() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(0), 0.0, 2.0);
    }
}
