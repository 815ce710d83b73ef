//! WF²Q+ — the paper's contribution (§3.4).
//!
//! WF²Q+ uses the SEFF policy (Smallest Eligible virtual Finish time First)
//! driven by the low-complexity virtual time function of eq. (27):
//!
//! ```text
//! V(t + τ) = max( V(t) + τ,  min_{i ∈ B̂(t)} S_i )
//! ```
//!
//! Operationally (RESTART-NODE lines 12–13 of the paper's pseudocode), each
//! dispatch of an `L`-bit packet advances
//!
//! ```text
//! V ← max(V, Smin) + L / r      and      T ← T + L / r
//! ```
//!
//! where `Smin` is the smallest start tag among backlogged sessions and `r`
//! the server rate. Both the `max`/`min` computation and the SEFF selection
//! are O(log N) via an [`EligibleSet`], giving the three properties of
//! Theorem 4: work conservation, per-session B-WFI
//! `α_i = L_i,max + (L_max − L_i,max)·r_i/r`, and the GPS-tight delay bound
//! `σ_i/r_i + L_max/r` for a `(σ_i, r_i)` leaky-bucket session.

use hpfq_core::eligible::{dual_heap::DualHeapEligibleSet, EligibleSet};
use hpfq_obs::snap::{SnapError, Value};

use super::scheduler::{
    load_opt_id, load_sessions, save_opt_id, save_sessions, NodeScheduler, SessionId, SessionState,
};

/// The WF²Q+ scheduler, generic over the eligible-set structure (defaulting
/// to the production dual-heap).
#[derive(Debug, Clone)]
pub struct Wf2qPlus<E: EligibleSet = DualHeapEligibleSet> {
    rate: f64,
    sessions: Vec<SessionState>,
    set: E,
    /// Virtual time `V` of eq. (27), in reference-time seconds.
    v: f64,
    /// Reference time `T = W(0,t)/r`, advanced by `L/r` per dispatch.
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Wf2qPlus<DualHeapEligibleSet> {
    /// Creates a WF²Q+ server of the given rate using the dual-heap
    /// eligible set.
    pub fn new(rate_bps: f64) -> Self {
        Self::with_set(rate_bps, DualHeapEligibleSet::new())
    }
}

impl<E: EligibleSet> Wf2qPlus<E> {
    /// Creates a WF²Q+ server of the given rate over a caller-provided
    /// eligible-set structure.
    pub fn with_set(rate_bps: f64, set: E) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Wf2qPlus {
            rate: rate_bps,
            sessions: Vec::new(),
            set,
            v: 0.0,
            t: 0.0,
            in_service: None,
            backlogged: 0,
        }
    }

    /// Current reference time (served work normalized by the rate).
    pub fn reference_time(&self) -> f64 {
        self.t
    }
}

impl<E: EligibleSet> NodeScheduler for Wf2qPlus<E> {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.sessions.push(SessionState::new(phi, self.rate));
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        // Eq. (27): V(t+tau) >= V(t) + tau. At dispatches V is advanced by
        // L/r (pre-advanced to the packet's completion), so a mid-packet
        // arrival's real reference time never exceeds the stored V;
        // the max() below is a no-op at the root and for internal nodes,
        // but implements the formula exactly.
        let v = match ref_now {
            Some(t) => self.v + (t - self.t).max(0.0),
            None => self.v,
        };
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged, "backlog() on a backlogged session");
        s.stamp_new_backlog(v, head_bits);
        self.set.insert(id, s.start, s.finish);
        self.backlogged += 1;
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(
            self.in_service.is_none(),
            "select_next() while a session is in service"
        );
        // Eligibility threshold max(V, Smin) — eq. (27)'s max-over-min.
        let thr = self.set.eligibility_threshold(self.v)?;
        let id = self
            .set
            .pop_min_finish(thr)
            // lint:allow(L002): thr = max(V, Smin) >= Smin admits that session
            .expect("max(V, Smin) always admits at least one session");
        let l = self.sessions[id.0].head_bits;
        // RESTART-NODE lines 12–13.
        self.v = thr + l / self.rate;
        self.t += l / self.rate;
        self.in_service = Some(id);
        Some(id)
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(
            self.in_service,
            Some(id),
            "requeue() must match the in-service session"
        );
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                let s = &mut self.sessions[id.0];
                s.stamp_continuation(bits);
                self.set.insert(id, s.start, s.finish);
            }
            None => {
                self.sessions[id.0].backlogged = false;
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    // Busy period over: restart the virtual clock.
                    self.v = 0.0;
                    self.t = 0.0;
                    self.set.clear();
                    for s in &mut self.sessions {
                        s.reset();
                    }
                }
            }
        }
    }

    fn backlogged(&self) -> usize {
        self.backlogged
    }

    fn virtual_time(&self) -> f64 {
        self.v
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.sessions[id.0].phi
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        let s = &self.sessions[id.0];
        (s.start, s.finish)
    }

    fn name(&self) -> &'static str {
        "wf2q+"
    }

    fn save_state(&self) -> Value {
        // The eligible set is not serialized: its membership is exactly the
        // backlogged, not-in-service sessions, and pop order is a pure
        // function of membership (lazy deletion inside the structure is
        // caching, not state), so load_state rebuilds it.
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
            ("v", Value::F64(self.v)),
            ("t", Value::F64(self.t)),
            ("in_service", save_opt_id(self.in_service)),
            ("sessions", save_sessions(&self.sessions)),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "wf2q+ rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        self.sessions = load_sessions(state.get("sessions")?)?;
        self.v = state.get("v")?.as_f64()?;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        self.backlogged = self.sessions.iter().filter(|s| s.backlogged).count();
        self.set.clear();
        for (i, s) in self.sessions.iter().enumerate() {
            let id = SessionId(i);
            if s.backlogged && self.in_service != Some(id) {
                self.set.insert(id, s.start, s.finish);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a standalone server over a fully backlogged set and returns
    /// the dispatch order; helper shared by the scheduler unit tests.
    fn drain<S: NodeScheduler>(sched: &mut S, packets_per_session: &mut [usize]) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(id) = sched.select_next() {
            order.push(id.0);
            packets_per_session[id.0] -= 1;
            let next = if packets_per_session[id.0] > 0 {
                Some(1.0)
            } else {
                None
            };
            sched.requeue(id, next);
        }
        order
    }

    /// The Fig. 2 scenario: 11 sessions, unit packets, unit rate; session 0
    /// has φ=0.5 and 11 packets, sessions 1..=10 have φ=0.05 and 1 packet
    /// each, all arriving at t=0. WF²Q must interleave: session 0 never
    /// gets two back-to-back transmissions until the others are spaced out.
    #[test]
    fn fig2_interleaving() {
        let mut s = Wf2qPlus::new(1.0);
        let s0 = s.add_session(0.5);
        let mut others = Vec::new();
        for _ in 0..10 {
            others.push(s.add_session(0.05));
        }
        s.backlog(s0, 1.0, Some(0.0));
        for &o in &others {
            s.backlog(o, 1.0, Some(0.0));
        }
        let mut remaining = vec![11, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let order = drain(&mut s, &mut remaining);
        assert_eq!(order.len(), 21);
        // Paper Fig. 2 bottom timeline: session 1 (our id 0) transmits at
        // slots 0,2,4,...,18 and its 11th packet at slot 20.
        for (slot, &id) in order.iter().enumerate() {
            if slot % 2 == 0 {
                assert_eq!(id, 0, "slot {slot} should serve session 0");
            } else {
                assert_ne!(id, 0, "slot {slot} should serve a small session");
            }
        }
    }

    /// A packet arriving to an idle session while others are backlogged is
    /// stamped with at least the minimum start among existing sessions
    /// (the "newly backlogged session" property of eq. 27).
    #[test]
    fn new_backlog_not_stamped_in_the_past() {
        let mut s = Wf2qPlus::new(1.0);
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        let sel = s.select_next().unwrap();
        assert_eq!(sel, a);
        s.requeue(a, Some(1.0));
        // V advanced to 1.0; b arrives now.
        s.backlog(b, 1.0, None);
        let (start_b, finish_b) = s.tags(b);
        assert!(start_b >= 1.0, "start {start_b} must be >= V");
        assert_eq!(finish_b, start_b + 2.0);
    }

    #[test]
    fn work_conserving_and_resets_after_drain() {
        let mut s = Wf2qPlus::new(2.0);
        let a = s.add_session(0.25);
        s.backlog(a, 2.0, None);
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
        assert_eq!(s.backlogged(), 0);
        assert_eq!(s.virtual_time(), 0.0);
        assert_eq!(s.select_next(), None);
        // A new busy period starts from a clean clock.
        s.backlog(a, 2.0, None);
        assert_eq!(s.tags(a).0, 0.0);
    }

    /// Weighted bandwidth split over a long backlog: shares 3:1.
    #[test]
    fn long_run_weighted_share() {
        let mut s = Wf2qPlus::new(1.0);
        let a = s.add_session(0.75);
        let b = s.add_session(0.25);
        s.backlog(a, 1.0, None);
        s.backlog(b, 1.0, None);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            let id = s.select_next().unwrap();
            counts[id.0] += 1;
            s.requeue(id, Some(1.0));
        }
        assert!((counts[0] as f64 - 300.0).abs() <= 1.0, "{counts:?}");
        assert!((counts[1] as f64 - 100.0).abs() <= 1.0, "{counts:?}");
    }
}
