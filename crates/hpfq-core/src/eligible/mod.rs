//! Eligible-set data structures for SEFF (Smallest Eligible virtual Finish
//! time First) schedulers.
//!
//! A SEFF scheduler (WF²Q, WF²Q+) must repeatedly answer: *among the
//! backlogged sessions whose virtual start time `S_i` is at most a threshold
//! `thr`, which has the smallest virtual finish time `F_i`?* — and it must
//! also know `Smin`, the smallest start time over **all** backlogged
//! sessions, to evaluate the `max(V, Smin)` operation of the paper's
//! eq. (27) / RESTART-NODE line 12.
//!
//! Two implementations back the PIFO driver ([`crate::pifo::PifoTree`])
//! through the [`PifoBackend`] trait, and both also implement the narrow
//! [`EligibleSet`] queries:
//!
//! * [`dual_heap::DualHeapEligibleSet`] — a pair of lazy binary heaps
//!   (pending sessions ordered by start time, eligible ones by finish time);
//!   sessions migrate as the virtual time advances. Amortized O(log N), and
//!   the default: the structure used by production WF²Q+ implementations
//!   (e.g. dummynet).
//! * [`calendar::CalendarEligibleSet`] — a hierarchical calendar queue
//!   (timing wheel) with amortized O(1) inserts and pops, for very large
//!   flow counts.
//!
//! Each is checked against [`BruteForceEligibleSet`] in unit and property
//! tests, and against the other in the PIFO equivalence suite and the
//! `eligible_set` bench ablation.

pub mod calendar;
pub mod dual_heap;

use crate::scheduler::SessionId;
use crate::vtime;

/// Backing priority structure for the PIFO driver ([`crate::pifo::PifoTree`]).
///
/// This is the generalized *ranked* interface the dual-heap set grew for the
/// PIFO substrate, lifted to a trait so the driver can swap structures: the
/// dual heap (amortized O(log N)) and the hierarchical calendar queue
/// (amortized O(1)). Every method mirrors the dual-heap original; the
/// semantic contract — rank model, monotone thresholds within a busy
/// period, id tie-breaks, the `MONOTONE_RANKS` tail promise — is documented
/// on [`dual_heap::DualHeapEligibleSet`] and applies verbatim to every
/// implementation. All implementations must pop in the exact same
/// `(primary, secondary, id)` order: the PIFO equivalence suite drives them
/// in lockstep and requires byte-identical dispatch sequences.
pub trait PifoBackend: std::fmt::Debug + Clone + Default {
    /// Short structure name for snapshots and diagnostics.
    fn backend_name(&self) -> &'static str;

    /// Pre-sizes the per-session arrays for ids `< n` (the driver registers
    /// every session before scheduling starts).
    fn ensure_sessions(&mut self, n: usize);

    /// Inserts a member under the PIFO rank model: optional eligibility key
    /// (`None` = immediately eligible), lexicographic `(primary, secondary)`
    /// rank, ties by session id.
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64);

    /// Ring-discipline insert under the `MONOTONE_RANKS` promise (open rank,
    /// >= everything queued or <= everything queued).
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64);

    /// Pop for `MONOTONE_RANKS` programs: the front of the sorted tail.
    fn pop_monotone(&mut self) -> Option<SessionId>;

    /// Pops the minimum `(primary, secondary, id)` rank regardless of
    /// eligibility keys ([`Threshold::All`](crate::pifo::Threshold::All)).
    fn pop_min_ranked(&mut self) -> Option<SessionId>;

    /// `max(v, Smin)` over all members — eq. (27)'s clamp. `None` if empty.
    /// ([`EligibleSet::eligibility_threshold`] under a non-colliding name:
    /// every backend also implements the narrow trait, and duplicated
    /// method names would force UFCS at each call site.)
    fn clamp_threshold(&mut self, v: f64) -> Option<f64>;

    /// Pops the minimum-rank member among those eligible at `thr`
    /// ([`EligibleSet::pop_min_finish`] generalized to ranks).
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId>;

    /// Live membership as re-insertable `(id, elig, primary, secondary)`
    /// ranks, replayable through [`PifoBackend::insert_ranked`]. Must be a
    /// deterministic function of the live membership (snapshot stability).
    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)>;

    /// Number of members.
    fn members(&self) -> usize;

    /// Removes all members and resets monotone state (new busy period).
    fn reset(&mut self);
}

/// A set of backlogged sessions, each with immutable `(start, finish)`
/// virtual tags, supporting the SEFF queries.
///
/// Invariants required from the caller (upheld by the schedulers):
///
/// * a session id is inserted at most once until popped or removed;
/// * tags are finite and `start <= finish`;
/// * within one busy period, the thresholds passed to
///   [`EligibleSet::pop_min_finish`] are non-decreasing (virtual time is
///   monotone); [`EligibleSet::clear`] starts a new busy period.
pub trait EligibleSet {
    /// Adds a backlogged session with the tags of its head packet.
    fn insert(&mut self, id: SessionId, start: f64, finish: f64);

    /// Removes a session regardless of eligibility (used when a logical
    /// queue is torn down). No-op if absent.
    fn remove(&mut self, id: SessionId);

    /// `max(v, Smin)` where `Smin` is the minimum start tag over all
    /// members — the eligibility threshold of eq. (27). `None` if empty.
    fn eligibility_threshold(&mut self, v: f64) -> Option<f64>;

    /// Removes and returns the member with the smallest finish tag among
    /// those with `start <= thr`. Ties are broken by the smaller session
    /// index — the convention that reproduces the paper's Fig. 2 timelines
    /// (where session 1's packet wins finish-tag ties against the small
    /// sessions). `None` if no member is eligible.
    fn pop_min_finish(&mut self, thr: f64) -> Option<SessionId>;

    /// Number of members.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all members and resets internal monotonic state (new busy
    /// period).
    fn clear(&mut self);
}

/// O(N) reference implementation used as the oracle in tests.
#[derive(Debug, Default, Clone)]
pub struct BruteForceEligibleSet {
    members: Vec<(SessionId, f64, f64)>,
}

impl EligibleSet for BruteForceEligibleSet {
    fn insert(&mut self, id: SessionId, start: f64, finish: f64) {
        debug_assert!(start.is_finite() && finish.is_finite() && vtime::exactly_le(start, finish));
        debug_assert!(!self.members.iter().any(|&(m, _, _)| m == id));
        self.members.push((id, start, finish));
    }

    fn remove(&mut self, id: SessionId) {
        self.members.retain(|&(m, _, _)| m != id);
    }

    fn eligibility_threshold(&mut self, v: f64) -> Option<f64> {
        self.members
            .iter()
            .map(|&(_, s, _)| s)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.min(s)))
            })
            .map(|smin| v.max(smin))
    }

    fn pop_min_finish(&mut self, thr: f64) -> Option<SessionId> {
        // Exact comparison and exact stamp equality: the id tie-break only
        // fires on *identical* finish tags (paper Fig. 2 determinism), and
        // a tolerance here would reorder dispatch.
        let better = |(id, finish): (SessionId, f64), (bid, bfinish): (SessionId, f64)| {
            vtime::exactly_lt(finish, bfinish)
                || (vtime::same_stamp(finish, bfinish) && id.0 < bid.0)
        };
        let mut best: Option<(usize, SessionId, f64)> = None;
        for (i, &(id, start, finish)) in self.members.iter().enumerate() {
            if vtime::exactly_le(start, thr)
                && best.is_none_or(|(_, bid, bf)| better((id, finish), (bid, bf)))
            {
                best = Some((i, id, finish));
            }
        }
        best.map(|(i, id, _)| {
            self.members.swap_remove(i);
            id
        })
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn clear(&mut self) {
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_basics() {
        let mut s = BruteForceEligibleSet::default();
        assert!(s.is_empty());
        assert_eq!(s.eligibility_threshold(1.0), None);
        s.insert(SessionId(0), 2.0, 5.0);
        s.insert(SessionId(1), 0.0, 9.0);
        s.insert(SessionId(2), 0.5, 3.0);
        // Smin = 0.0 <= v, threshold is v itself.
        assert_eq!(s.eligibility_threshold(1.0), Some(1.0));
        // Only ids 1 and 2 eligible at thr=1.0; min finish is id 2.
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(1.0), None);
        // Remaining session has start 2.0 > v: threshold jumps to Smin.
        assert_eq!(s.eligibility_threshold(1.0), Some(2.0));
        assert_eq!(s.pop_min_finish(2.0), Some(SessionId(0)));
        assert!(s.is_empty());
    }

    #[test]
    fn ties_break_deterministically() {
        let mut s = BruteForceEligibleSet::default();
        s.insert(SessionId(3), 0.0, 4.0);
        s.insert(SessionId(1), 0.0, 4.0);
        s.insert(SessionId(2), 0.0, 4.0);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(3)));
    }
}
