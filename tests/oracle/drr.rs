//! DRR — Deficit Round Robin (Shreedhar & Varghese, SIGCOMM '95; paper §6).
//!
//! O(1) frame-based scheduling: backlogged sessions sit in a round-robin
//! ring; each visit credits the session's deficit counter with a quantum
//! proportional to its share and the session sends while its head fits in
//! the deficit. The paper cites DRR as a low-complexity scheduler with a
//! *large* WFI — the `wfi_table` experiment quantifies that against WF²Q+.

use std::collections::VecDeque;

use hpfq_core::vtime;
use hpfq_obs::snap::{SnapError, Value};

use super::scheduler::{load_opt_id, save_opt_id, NodeScheduler, SessionId};

#[derive(Debug, Clone)]
struct DrrSession {
    phi: f64,
    /// Quantum credited at the start of each round-robin turn, in bits.
    quantum: f64,
    /// Unused credit in bits. Carries across rounds while the head packet
    /// exceeds it (so oversized packets eventually send); reset when the
    /// session drains.
    deficit: f64,
    head_bits: f64,
    backlogged: bool,
    /// Whether the quantum for the current turn has been credited.
    turn_credited: bool,
}

/// The DRR scheduler.
#[derive(Debug, Clone)]
pub struct Drr {
    rate: f64,
    sessions: Vec<DrrSession>,
    /// Round-robin ring of backlogged sessions; the front session keeps
    /// sending while its deficit lasts.
    ring: VecDeque<SessionId>,
    quantum_base: f64,
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Drr {
    /// Default base quantum: one 1500-byte MTU in bits. A session of share
    /// `phi` receives `phi * base` bits per round.
    pub const DEFAULT_QUANTUM_BASE: f64 = 12_000.0;

    /// Creates a DRR server with the default quantum base.
    pub fn new(rate_bps: f64) -> Self {
        Self::with_quantum_base(rate_bps, Self::DEFAULT_QUANTUM_BASE)
    }

    /// Creates a DRR server crediting `phi * quantum_base_bits` per turn.
    /// Larger quanta lower the per-packet overhead but increase burstiness
    /// (and the WFI).
    pub fn with_quantum_base(rate_bps: f64, quantum_base_bits: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        assert!(
            quantum_base_bits.is_finite() && quantum_base_bits > 0.0,
            "invalid quantum base {quantum_base_bits}"
        );
        Drr {
            rate: rate_bps,
            sessions: Vec::new(),
            ring: VecDeque::new(),
            quantum_base: quantum_base_bits,
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

impl NodeScheduler for Drr {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        assert!(phi.is_finite() && phi > 0.0, "invalid share {phi}");
        self.sessions.push(DrrSession {
            phi,
            quantum: phi * self.quantum_base,
            deficit: 0.0,
            head_bits: 0.0,
            backlogged: false,
            turn_credited: false,
        });
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, _ref_now: Option<f64>) {
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged);
        s.backlogged = true;
        s.head_bits = head_bits;
        s.deficit = 0.0;
        s.turn_credited = false;
        self.ring.push_back(id);
        self.backlogged += 1;
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(self.in_service.is_none());
        loop {
            let id = *self.ring.front()?;
            let s = &mut self.sessions[id.0];
            if !s.turn_credited {
                s.deficit += s.quantum;
                s.turn_credited = true;
            }
            // Tolerance absorbs float drift from repeated credits.
            if vtime::approx_le(s.head_bits, s.deficit) {
                s.deficit -= s.head_bits;
                self.t += s.head_bits / self.rate;
                self.in_service = Some(id);
                return Some(id);
            }
            // Head does not fit: next turn (deficit carries over so the
            // packet eventually sends even if it exceeds one quantum).
            s.turn_credited = false;
            self.ring.rotate_left(1);
        }
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(self.in_service, Some(id));
        debug_assert_eq!(self.ring.front(), Some(&id));
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                let s = &mut self.sessions[id.0];
                s.head_bits = bits;
                // The front session keeps its turn while the deficit covers
                // the next head; otherwise its turn ends.
                if vtime::strictly_after(bits, s.deficit) {
                    s.turn_credited = false;
                    self.ring.rotate_left(1);
                }
            }
            None => {
                self.ring.pop_front();
                let s = &mut self.sessions[id.0];
                s.backlogged = false;
                s.deficit = 0.0;
                s.turn_credited = false;
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    self.t = 0.0;
                }
            }
        }
    }

    fn backlogged(&self) -> usize {
        self.backlogged
    }

    /// DRR maintains no virtual clock; its reference time stands in.
    fn virtual_time(&self) -> f64 {
        self.t
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.sessions[id.0].phi
    }

    fn tags(&self, _id: SessionId) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn name(&self) -> &'static str {
        "drr"
    }

    fn save_state(&self) -> Value {
        // Unlike the virtual-time schedulers, the ring's *order* is state
        // (it encodes whose turn is next), so it is saved verbatim rather
        // than rebuilt from per-session flags.
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
            ("quantum_base", Value::F64(self.quantum_base)),
            ("t", Value::F64(self.t)),
            ("in_service", save_opt_id(self.in_service)),
            (
                "sessions",
                Value::List(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Value::map(vec![
                                ("phi", Value::F64(s.phi)),
                                ("quantum", Value::F64(s.quantum)),
                                ("deficit", Value::F64(s.deficit)),
                                ("head_bits", Value::F64(s.head_bits)),
                                ("backlogged", Value::Bool(s.backlogged)),
                                ("turn_credited", Value::Bool(s.turn_credited)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ring",
                Value::List(self.ring.iter().map(|id| Value::U64(id.0 as u64)).collect()),
            ),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        let quantum_base = state.get("quantum_base")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits()
            || quantum_base.to_bits() != self.quantum_base.to_bits()
        {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "drr config mismatch: snapshot rate {rate} / quantum base {quantum_base}, \
                     configured {} / {}",
                    self.rate, self.quantum_base
                ),
            });
        }
        let mut sessions = Vec::new();
        for sv in state.get("sessions")?.items()? {
            sessions.push(DrrSession {
                phi: sv.get("phi")?.as_f64()?,
                quantum: sv.get("quantum")?.as_f64()?,
                deficit: sv.get("deficit")?.as_f64()?,
                head_bits: sv.get("head_bits")?.as_f64()?,
                backlogged: sv.get("backlogged")?.as_bool()?,
                turn_credited: sv.get("turn_credited")?.as_bool()?,
            });
        }
        let mut ring = VecDeque::new();
        for idv in state.get("ring")?.items()? {
            let id = idv.as_usize()?;
            if id >= sessions.len() {
                return Err(SnapError {
                    at: 0,
                    what: format!("ring references session {id} of {}", sessions.len()),
                });
            }
            ring.push_back(SessionId(id));
        }
        self.backlogged = sessions.iter().filter(|s| s.backlogged).count();
        self.sessions = sessions;
        self.ring = ring;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_split_over_many_rounds() {
        let mut s = Drr::with_quantum_base(1.0, 2.0);
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
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.1, "{counts:?}");
    }

    #[test]
    fn oversized_packet_accumulates_deficit() {
        let mut s = Drr::with_quantum_base(1.0, 1.0);
        let a = s.add_session(0.5); // quantum 0.5 bits/turn
        let b = s.add_session(0.5);
        s.backlog(a, 2.0, None); // needs 4 turns of credit
        s.backlog(b, 0.5, None);
        // b's small packets interleave while a saves credit.
        let first = s.select_next().unwrap();
        assert_eq!(first, b);
        s.requeue(b, Some(0.5));
        let second = s.select_next().unwrap();
        assert_eq!(second, b);
        s.requeue(b, None);
        // With b gone, a keeps earning quanta until the packet fits.
        let third = s.select_next().unwrap();
        assert_eq!(third, a);
        s.requeue(a, None);
        assert_eq!(s.backlogged(), 0);
    }

    #[test]
    fn front_session_sends_burst_within_deficit() {
        let mut s = Drr::with_quantum_base(1.0, 4.0);
        let a = s.add_session(1.0); // quantum 4 bits
        s.backlog(a, 1.0, None);
        for _ in 0..4 {
            assert_eq!(s.select_next(), Some(a));
            s.requeue(a, Some(1.0));
        }
        // 4 bits spent; the 5th packet needs a fresh turn but a is alone,
        // so it still comes next.
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
    }
}
