//! FIFO — the null scheduler baseline.
//!
//! Provides no isolation whatsoever: heads are served in the order their
//! backlog episodes began. Because a node scheduler only sees one head per
//! logical queue (paper §4.2), this is exact FIFO for a single-session node
//! and head-offer-order FIFO (a round-robin-flavoured approximation of true
//! arrival-order FIFO) across multiple sessions; the distinction is
//! irrelevant for its role as the "no fairness" baseline in experiments.

use std::collections::VecDeque;

use hpfq_obs::snap::{SnapError, Value};

use super::scheduler::{load_opt_id, save_opt_id, NodeScheduler, SessionId};

#[derive(Debug, Clone)]
struct FifoSession {
    phi: f64,
    head_bits: f64,
    backlogged: bool,
}

/// The FIFO scheduler.
#[derive(Debug, Clone)]
pub struct Fifo {
    rate: f64,
    sessions: Vec<FifoSession>,
    order: VecDeque<SessionId>,
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Fifo {
    /// Creates a FIFO server of the given rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Fifo {
            rate: rate_bps,
            sessions: Vec::new(),
            order: VecDeque::new(),
            t: 0.0,
            in_service: None,
            backlogged: 0,
        }
    }
}

impl NodeScheduler for Fifo {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        assert!(phi.is_finite() && phi > 0.0, "invalid share {phi}");
        self.sessions.push(FifoSession {
            phi,
            head_bits: 0.0,
            backlogged: false,
        });
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, _ref_now: Option<f64>) {
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged);
        s.backlogged = true;
        s.head_bits = head_bits;
        self.order.push_back(id);
        self.backlogged += 1;
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(self.in_service.is_none());
        let id = self.order.pop_front()?;
        self.t += self.sessions[id.0].head_bits / self.rate;
        self.in_service = Some(id);
        Some(id)
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(self.in_service, Some(id));
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                self.sessions[id.0].head_bits = bits;
                self.order.push_back(id);
            }
            None => {
                self.sessions[id.0].backlogged = false;
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
        "fifo"
    }

    fn save_state(&self) -> Value {
        // Offer order is the whole policy; the queue is saved verbatim.
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
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
                                ("head_bits", Value::F64(s.head_bits)),
                                ("backlogged", Value::Bool(s.backlogged)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "order",
                Value::List(
                    self.order
                        .iter()
                        .map(|id| Value::U64(id.0 as u64))
                        .collect(),
                ),
            ),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "fifo rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        let mut sessions = Vec::new();
        for sv in state.get("sessions")?.items()? {
            sessions.push(FifoSession {
                phi: sv.get("phi")?.as_f64()?,
                head_bits: sv.get("head_bits")?.as_f64()?,
                backlogged: sv.get("backlogged")?.as_bool()?,
            });
        }
        let mut order = VecDeque::new();
        for idv in state.get("order")?.items()? {
            let id = idv.as_usize()?;
            if id >= sessions.len() {
                return Err(SnapError {
                    at: 0,
                    what: format!("order references session {id} of {}", sessions.len()),
                });
            }
            order.push_back(SessionId(id));
        }
        self.backlogged = sessions.iter().filter(|s| s.backlogged).count();
        self.sessions = sessions;
        self.order = order;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_in_offer_order() {
        let mut s = Fifo::new(1.0);
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(b, 1.0, None);
        s.backlog(a, 1.0, None);
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, None);
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, Some(2.0));
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
        assert_eq!(s.select_next(), None);
    }
}
