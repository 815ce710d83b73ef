//! Crate-private helpers of `hpfq_core::scheduler` that the hand-rolled
//! schedulers depend on, copied here so the oracle builds outside the
//! library: the array-of-structs [`SessionState`] record with its snapshot
//! codec, and the optional-id and pending-stamp serializers. Their
//! snapshot formats match `hpfq_core::SessionTable` and the rank programs
//! field for field.

use hpfq_obs::snap::{SnapError, Value};

pub use hpfq_core::{NodeScheduler, SessionId};

/// Serializes an optional in-service session id.
pub(crate) fn save_opt_id(id: Option<SessionId>) -> Value {
    match id {
        Some(id) => Value::U64(id.0 as u64),
        None => Value::Null,
    }
}

/// Restores an optional in-service session id.
pub(crate) fn load_opt_id(v: &Value) -> Result<Option<SessionId>, SnapError> {
    if v.is_null() {
        Ok(None)
    } else {
        Ok(Some(SessionId(v.as_usize()?)))
    }
}

/// Per-session bookkeeping of the hand-rolled virtual-time schedulers
/// (one array-of-structs record per session).
///
/// Stores the share, the derived inverse guaranteed rate, the head tags
/// `(start, finish)` of eq. (28)/(29), and the backlog flag.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Guaranteed share of the parent server's rate.
    pub phi: f64,
    /// `1 / (phi * server_rate)` — seconds of virtual time per bit.
    pub inv_rate: f64,
    /// Virtual start tag of the head packet.
    pub start: f64,
    /// Virtual finish tag of the head packet.
    pub finish: f64,
    /// Length of the head packet in bits (valid while backlogged).
    pub head_bits: f64,
    /// Whether the session currently offers a head packet (or has one in
    /// service).
    pub backlogged: bool,
}

impl SessionState {
    /// Creates an idle session with share `phi` of a `server_rate` server.
    pub fn new(phi: f64, server_rate: f64) -> Self {
        assert!(
            phi.is_finite() && phi > 0.0,
            "session share must be a positive finite number, got {phi}"
        );
        assert!(
            server_rate.is_finite() && server_rate > 0.0,
            "server rate must be a positive finite number, got {server_rate}"
        );
        SessionState {
            phi,
            inv_rate: 1.0 / (phi * server_rate),
            start: 0.0,
            finish: 0.0,
            head_bits: 0.0,
            backlogged: false,
        }
    }

    /// Stamps tags for a head arriving to an idle session: `S = max(F, V)`,
    /// `F = S + L / r_i` (eq. 28 second case + eq. 29).
    pub fn stamp_new_backlog(&mut self, v: f64, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        self.start = self.finish.max(v);
        self.finish = self.start + head_bits * self.inv_rate;
        self.head_bits = head_bits;
        self.backlogged = true;
    }

    /// Stamps tags for the next head of a continuously backlogged session:
    /// `S = F` (eq. 28 first case).
    pub fn stamp_continuation(&mut self, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        self.start = self.finish;
        self.finish = self.start + head_bits * self.inv_rate;
        self.head_bits = head_bits;
    }

    /// Resets tags at a busy-period boundary.
    pub fn reset(&mut self) {
        self.start = 0.0;
        self.finish = 0.0;
        debug_assert!(!self.backlogged, "resetting a backlogged session");
    }

    /// Serializes for an epoch checkpoint. Every field is saved verbatim —
    /// in particular `inv_rate` is *not* recomputed from `phi` on load, so
    /// the restored tag arithmetic is bit-identical.
    pub(crate) fn save(&self) -> Value {
        Value::map(vec![
            ("phi", Value::F64(self.phi)),
            ("inv_rate", Value::F64(self.inv_rate)),
            ("start", Value::F64(self.start)),
            ("finish", Value::F64(self.finish)),
            ("head_bits", Value::F64(self.head_bits)),
            ("backlogged", Value::Bool(self.backlogged)),
        ])
    }

    /// Restores a session saved by [`SessionState::save`].
    pub(crate) fn load(v: &Value) -> Result<SessionState, SnapError> {
        Ok(SessionState {
            phi: v.get("phi")?.as_f64()?,
            inv_rate: v.get("inv_rate")?.as_f64()?,
            start: v.get("start")?.as_f64()?,
            finish: v.get("finish")?.as_f64()?,
            head_bits: v.get("head_bits")?.as_f64()?,
            backlogged: v.get("backlogged")?.as_bool()?,
        })
    }
}

/// Serializes a `Vec<SessionState>` session table.
pub(crate) fn save_sessions(sessions: &[SessionState]) -> Value {
    Value::List(sessions.iter().map(SessionState::save).collect())
}

/// Restores a session table saved by [`save_sessions`].
pub(crate) fn load_sessions(v: &Value) -> Result<Vec<SessionState>, SnapError> {
    v.items()?.iter().map(SessionState::load).collect()
}

/// Serializes per-session pending-stamp queues (the eq. (28) start bases
/// recorded by `arrival_hint` in the GPS-emulating policies — WFQ, WF²Q,
/// and their rank programs).
pub(crate) fn save_pending(pending: &[std::collections::VecDeque<f64>]) -> Value {
    Value::List(
        pending
            .iter()
            .map(|q| Value::List(q.iter().map(|&b| Value::F64(b)).collect()))
            .collect(),
    )
}

/// Restores queues saved by [`save_pending`]; must match the session count.
pub(crate) fn load_pending(
    v: &Value,
    sessions: usize,
) -> Result<Vec<std::collections::VecDeque<f64>>, SnapError> {
    let mut pending = Vec::new();
    for qv in v.items()? {
        let mut q = std::collections::VecDeque::new();
        for bv in qv.items()? {
            q.push_back(bv.as_f64()?);
        }
        pending.push(q);
    }
    if pending.len() != sessions {
        return Err(SnapError {
            at: 0,
            what: format!(
                "pending queue count {} does not match session count {sessions}",
                pending.len()
            ),
        });
    }
    Ok(pending)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_rules_follow_eq_28_29() {
        // phi = 0.5 of a 2 bit/s server => r_i = 1 bit/s.
        let mut s = SessionState::new(0.5, 2.0);
        s.stamp_new_backlog(3.0, 4.0);
        assert_eq!(s.start, 3.0);
        assert_eq!(s.finish, 7.0);
        // Continuation: S = F.
        s.stamp_continuation(2.0);
        assert_eq!(s.start, 7.0);
        assert_eq!(s.finish, 9.0);
        // Re-backlog with stale V: S = max(F, V) = F.
        s.backlogged = false;
        s.stamp_new_backlog(1.0, 1.0);
        assert_eq!(s.start, 9.0);
        assert_eq!(s.finish, 10.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn rejects_nonpositive_share() {
        let _ = SessionState::new(0.0, 1.0);
    }
}
