//! SFQ — Start-time Fair Queueing (Goyal, Vin & Cheng, SIGCOMM '96).
//!
//! A contemporary of WF²Q+ included as an extra baseline (see DESIGN.md
//! §6): tags are computed exactly as in SCFQ, the virtual time is the
//! *start* tag of the packet in service, and the server picks the smallest
//! start tag (ties by finish tag). SFQ is fair and cheap but, like SCFQ and
//! unlike WF²Q+, its delay bound degrades with the number of sessions.

use hpfq_obs::snap::{SnapError, Value};

use super::scheduler::{
    load_opt_id, load_sessions, save_opt_id, save_sessions, NodeScheduler, SessionId, SessionState,
};
use super::tag_heap::TagHeap;

/// The SFQ scheduler.
#[derive(Debug, Clone)]
pub struct Sfq {
    rate: f64,
    sessions: Vec<SessionState>,
    /// Backlogged sessions keyed by (start, finish).
    heap: TagHeap,
    /// Virtual time = start tag of the packet most recently dispatched.
    v: f64,
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Sfq {
    /// Creates an SFQ server of the given rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Sfq {
            rate: rate_bps,
            sessions: Vec::new(),
            heap: TagHeap::new(),
            v: 0.0,
            t: 0.0,
            in_service: None,
            backlogged: 0,
        }
    }

    /// Current reference time.
    pub fn reference_time(&self) -> f64 {
        self.t
    }
}

impl NodeScheduler for Sfq {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.sessions.push(SessionState::new(phi, self.rate));
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, _ref_now: Option<f64>) {
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged);
        s.stamp_new_backlog(self.v, head_bits);
        self.heap.push(id, s.start, s.finish);
        self.backlogged += 1;
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(self.in_service.is_none());
        let (id, start, _) = self.heap.pop_min()?;
        self.v = start;
        self.t += self.sessions[id.0].head_bits / self.rate;
        self.in_service = Some(id);
        Some(id)
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(self.in_service, Some(id));
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                let s = &mut self.sessions[id.0];
                s.stamp_continuation(bits);
                self.heap.push(id, s.start, s.finish);
            }
            None => {
                self.sessions[id.0].backlogged = false;
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    self.v = 0.0;
                    self.t = 0.0;
                    self.heap.clear();
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
        "sfq"
    }

    fn save_state(&self) -> Value {
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
                    "sfq rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        self.sessions = load_sessions(state.get("sessions")?)?;
        self.v = state.get("v")?.as_f64()?;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        self.backlogged = self.sessions.iter().filter(|s| s.backlogged).count();
        self.heap.clear();
        for (i, s) in self.sessions.iter().enumerate() {
            let id = SessionId(i);
            if s.backlogged && self.in_service != Some(id) {
                self.heap.push(id, s.start, s.finish);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_split() {
        let mut s = Sfq::new(1.0);
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
        assert!((counts[0] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
    }

    /// A newcomer is tagged from the start tag of the in-service packet, so
    /// it begins service ahead of sessions that have built up large finish
    /// tags — SFQ's low-latency property for newly active sessions.
    #[test]
    fn newcomer_starts_promptly() {
        let mut s = Sfq::new(1.0);
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        // Serve a for a while, accumulating start tags 0, 2, 4, ...
        for _ in 0..5 {
            let id = s.select_next().unwrap();
            assert_eq!(id, a);
            s.requeue(id, Some(1.0));
        }
        // V is the start tag of a's 5th packet = 8.
        assert_eq!(s.virtual_time(), 8.0);
        s.backlog(b, 1.0, None);
        assert_eq!(s.tags(b).0, 8.0);
        // Next dispatch: a's head has start 10, b's start 8 → b wins.
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, None);
    }
}
