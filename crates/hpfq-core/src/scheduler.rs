//! The [`NodeScheduler`] trait: a one-level PFQ server over logical child
//! queues, usable standalone or as a node of an H-PFQ [`crate::Hierarchy`].
//!
//! ## The contract
//!
//! A node scheduler serves a set of *sessions* (child logical queues). At
//! any instant a session is either **idle** (offers no packet) or
//! **backlogged** (offers exactly one *head* packet of known length; further
//! packets behind the head are invisible to the scheduler, exactly as in the
//! paper's per-node logical queues, §4.2).
//!
//! The driver (the hierarchy, or a link for a standalone server) calls:
//!
//! * [`NodeScheduler::backlog`] when a session transitions idle →
//!   backlogged. Virtual-time schedulers stamp the head with
//!   `S = max(F_prev, V)` per eq. (28), second case.
//! * [`NodeScheduler::select_next`] when the node may dispatch: the
//!   scheduler picks a session according to its policy, accounts the head as
//!   served (advancing its virtual/reference clocks per RESTART-NODE lines
//!   12–13), and returns the session. The session is *in service* until the
//!   matching `requeue`.
//! * [`NodeScheduler::requeue`] once the dispatched head has been consumed:
//!   `Some(len)` re-offers the session's next head (`S = F_prev`, eq. (28)
//!   first case); `None` marks the session idle.
//!
//! ## Busy periods
//!
//! Virtual time is defined per server busy period (paper eq. 4). When the
//! last session goes idle, implementations reset their virtual clock and all
//! session tags to zero; tags from a previous busy period must not penalise
//! (or favour) sessions in the next one.

use hpfq_obs::snap::{SnapError, Value};

/// Index of a session (child logical queue) within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

impl SessionId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A one-level packet fair queueing server over logical child queues.
///
/// See the [module documentation](self) for the driving contract.
pub trait NodeScheduler {
    /// The configured output rate of this server in bits/s.
    fn rate_bps(&self) -> f64;

    /// Registers a new session with guaranteed share `phi` (fraction of this
    /// server's rate, `0 < phi <= 1`). The session starts idle.
    ///
    /// The caller is responsible for keeping the sum of shares at or below 1
    /// (the hierarchy enforces this); exceeding it voids the delay and WFI
    /// guarantees but the scheduler still operates.
    fn add_session(&mut self, phi: f64) -> SessionId;

    /// Session `id` transitions idle → backlogged with a head packet of
    /// `head_bits` bits.
    ///
    /// `ref_now` is the server's reference time at the arrival instant if
    /// the caller knows it — the hierarchy passes `Some(real elapsed busy
    /// time)` for the root server, where reference time coincides with
    /// real time (paper eq. 32), so arrivals between dispatches are
    /// stamped with the exact virtual time rather than the
    /// dispatch-quantized one. Internal nodes pass `None`: their reference
    /// time only advances at dispatches (pseudocode line 13), exactly as
    /// in the paper.
    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>);

    /// Announces a packet of `bits` bits arriving to an *already
    /// backlogged* session — it joins the session's queue behind the head
    /// and will be offered later through [`NodeScheduler::requeue`].
    ///
    /// `ref_now` follows the same convention as [`NodeScheduler::backlog`].
    /// Policies that emulate the reference GPS fluid system (WFQ, WF²Q) use
    /// the announcement to keep the emulated per-session backlog — and
    /// hence the virtual-time slope and eq. (28) stamps — exact instead of
    /// head-limited; self-clocked policies ignore it (the default).
    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        let _ = (id, bits, ref_now);
    }

    /// Picks the next session to serve per the policy and accounts its head
    /// packet as dispatched. Returns `None` iff no session is backlogged.
    ///
    /// The returned session stays *in service* — excluded from further
    /// selection — until [`NodeScheduler::requeue`] is called for it.
    fn select_next(&mut self) -> Option<SessionId>;

    /// Completes service of `id`'s dispatched head. `Some(len)` offers the
    /// session's next head packet of `len` bits; `None` marks it idle.
    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>);

    /// Number of sessions currently offering a packet (including one in
    /// service, if any).
    fn backlogged(&self) -> usize;

    /// Current value of the scheduler's virtual time function, in
    /// reference-time seconds. Round-robin schedulers that do not maintain a
    /// virtual clock return their served-work reference time instead.
    fn virtual_time(&self) -> f64;

    /// Guaranteed share of session `id`.
    fn phi(&self, id: SessionId) -> f64;

    /// Virtual start and finish tags of session `id`'s current head packet.
    /// Meaningful only while the session is backlogged; round-robin
    /// schedulers return `(0.0, 0.0)`.
    fn tags(&self, id: SessionId) -> (f64, f64);

    /// Short policy name for reports ("wf2q+", "wfq", …).
    fn name(&self) -> &'static str;

    /// Tells the scheduler whether it serves the hierarchy root. The
    /// hierarchy calls `set_is_root(false)` on every scheduler it attaches
    /// below the root, centralizing the `ref_now` convention of
    /// [`NodeScheduler::backlog`]: only root servers may receive
    /// `Some(ref_now)`, and [`crate::PifoTree`] debug-asserts it. The
    /// default is a no-op so standalone servers (which are their own root)
    /// and schedulers indifferent to the convention need not implement it.
    fn set_is_root(&mut self, is_root: bool) {
        let _ = is_root;
    }

    /// Hint that the scheduler may hold one eligibility threshold for `k`
    /// consecutive dispatches. No in-tree scheduler batches: each one
    /// recomputes its threshold at every dispatch, the per-packet schedule
    /// that Theorems 1–4 bound, so the default ignores the hint. It stays
    /// for wrapping schedulers that forward it to their inner scheduler.
    fn set_dispatch_batch(&mut self, k: usize) {
        let _ = k;
    }

    /// Serializes the scheduler's complete mutable state for an epoch
    /// checkpoint (DESIGN.md §14). The returned value, fed back through
    /// [`NodeScheduler::load_state`] on a scheduler constructed with the
    /// same configuration, must reproduce the original's behaviour exactly
    /// — every subsequent dispatch decision and tag must be bit-identical.
    ///
    /// The default returns [`Value::Null`] ("no checkpointable state"); all
    /// in-tree schedulers override it.
    fn save_state(&self) -> Value {
        Value::Null
    }

    /// Restores state captured by [`NodeScheduler::save_state`]. The
    /// default accepts only [`Value::Null`] so that a scheduler without
    /// checkpoint support fails loudly rather than resuming from garbage.
    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        if state.is_null() {
            Ok(())
        } else {
            Err(SnapError {
                at: 0,
                what: format!("scheduler '{}' does not support load_state", self.name()),
            })
        }
    }
}

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

/// Structure-of-arrays session table: the per-session metadata the PIFO
/// driver touches on **every dispatch** — shares, derived inverse rates,
/// the eq. (28)/(29) head tags, head lengths, and backlog flags — laid
/// out in parallel `Vec`s indexed by session id.
///
/// This extends the dual-heap eligible set's SoA layout to the flow table
/// itself: a dispatch reads 2–3 of the six fields, so pulling a dense
/// `f64` lane instead of a 48-byte per-session record keeps the hot cache
/// lines at a million-session scale packed with useful tags (the scaling
/// sweep in `hpfq-bench` measures exactly this path). Rank programs —
/// in-tree or user-supplied — stamp eq. (28)/(29) tags through this type.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    /// Guaranteed share of the parent server's rate, per session.
    phi: Vec<f64>,
    /// `1 / (phi * server_rate)` — seconds of virtual time per bit.
    inv_rate: Vec<f64>,
    /// Virtual start tag of each session's head packet.
    start: Vec<f64>,
    /// Virtual finish tag of each session's head packet.
    finish: Vec<f64>,
    /// Length of each session's head packet in bits (valid while
    /// backlogged).
    head_bits: Vec<f64>,
    /// Whether each session currently offers a head packet (or has one in
    /// service).
    backlogged: Vec<bool>,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// Registers an idle session with share `phi` of a `server_rate`
    /// server and returns its id. Both must be positive and finite.
    pub fn push(&mut self, phi: f64, server_rate: f64) -> SessionId {
        assert!(
            phi.is_finite() && phi > 0.0,
            "session share must be a positive finite number, got {phi}"
        );
        assert!(
            server_rate.is_finite() && server_rate > 0.0,
            "server rate must be a positive finite number, got {server_rate}"
        );
        self.phi.push(phi);
        self.inv_rate.push(1.0 / (phi * server_rate));
        self.start.push(0.0);
        self.finish.push(0.0);
        self.head_bits.push(0.0);
        self.backlogged.push(false);
        SessionId(self.phi.len() - 1)
    }

    /// The session's guaranteed share.
    #[inline]
    pub fn phi(&self, id: SessionId) -> f64 {
        self.phi[id.0]
    }

    /// Seconds of virtual time per bit at the session's guaranteed rate.
    #[inline]
    pub fn inv_rate(&self, id: SessionId) -> f64 {
        self.inv_rate[id.0]
    }

    /// Virtual start tag of the session's head packet.
    #[inline]
    pub fn start(&self, id: SessionId) -> f64 {
        self.start[id.0]
    }

    /// Virtual finish tag of the session's head packet.
    #[inline]
    pub fn finish(&self, id: SessionId) -> f64 {
        self.finish[id.0]
    }

    /// Length of the session's head packet in bits.
    #[inline]
    pub fn head_bits(&self, id: SessionId) -> f64 {
        self.head_bits[id.0]
    }

    /// Whether the session currently offers a head packet.
    #[inline]
    pub fn is_backlogged(&self, id: SessionId) -> bool {
        self.backlogged[id.0]
    }

    /// Stamps tags for a head arriving to an idle session: `S = max(F, V)`,
    /// `F = S + L / r_i` (eq. 28 second case + eq. 29).
    #[inline]
    pub fn stamp_new_backlog(&mut self, id: SessionId, v: f64, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        let i = id.0;
        self.start[i] = self.finish[i].max(v);
        self.finish[i] = self.start[i] + head_bits * self.inv_rate[i];
        self.head_bits[i] = head_bits;
        self.backlogged[i] = true;
    }

    /// Stamps tags for the next head of a continuously backlogged session:
    /// `S = F` (eq. 28 first case).
    #[inline]
    pub fn stamp_continuation(&mut self, id: SessionId, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        let i = id.0;
        self.start[i] = self.finish[i];
        self.finish[i] = self.start[i] + head_bits * self.inv_rate[i];
        self.head_bits[i] = head_bits;
    }

    /// Stamps the next head against an exact eq. (28) start base recorded
    /// at its arrival (the GPS-emulating policies' `arrival_hint` path):
    /// `S = max(F, base)`, `F = S + L / r_i`.
    #[inline]
    pub fn stamp_from_base(&mut self, id: SessionId, base: f64, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        let i = id.0;
        self.start[i] = self.finish[i].max(base);
        self.finish[i] = self.start[i] + head_bits * self.inv_rate[i];
        self.head_bits[i] = head_bits;
    }

    /// Records the head length and backlog flag without touching tags (the
    /// driver's bookkeeping after a program ranked the head).
    #[inline]
    pub(crate) fn note_head(&mut self, id: SessionId, head_bits: f64, backlogged: bool) {
        self.head_bits[id.0] = head_bits;
        self.backlogged[id.0] = backlogged;
    }

    /// Marks the session idle (its dispatched head had no successor).
    #[inline]
    pub(crate) fn set_idle(&mut self, id: SessionId) {
        self.backlogged[id.0] = false;
    }

    /// Number of sessions currently flagged backlogged.
    pub(crate) fn backlogged_count(&self) -> usize {
        self.backlogged.iter().filter(|&&b| b).count()
    }

    /// Resets every session's tags at a busy-period boundary.
    pub(crate) fn reset_tags(&mut self) {
        debug_assert!(
            !self.backlogged.iter().any(|&b| b),
            "resetting a backlogged session"
        );
        self.start.fill(0.0);
        self.finish.fill(0.0);
    }

    /// Serializes the table as one map per session (`phi`, `inv_rate`,
    /// `start`, `finish`, `head_bits`, `backlogged`). Every field is saved
    /// verbatim — `inv_rate` is not recomputed from `phi` on load — so the
    /// restored tag arithmetic is bit-identical.
    pub(crate) fn save(&self) -> Value {
        Value::List(
            (0..self.len())
                .map(|i| {
                    Value::map(vec![
                        ("phi", Value::F64(self.phi[i])),
                        ("inv_rate", Value::F64(self.inv_rate[i])),
                        ("start", Value::F64(self.start[i])),
                        ("finish", Value::F64(self.finish[i])),
                        ("head_bits", Value::F64(self.head_bits[i])),
                        ("backlogged", Value::Bool(self.backlogged[i])),
                    ])
                })
                .collect(),
        )
    }

    /// Restores a table saved by [`SessionTable::save`].
    pub(crate) fn load(v: &Value) -> Result<SessionTable, SnapError> {
        let mut t = SessionTable::new();
        for sv in v.items()? {
            t.phi.push(sv.get("phi")?.as_f64()?);
            t.inv_rate.push(sv.get("inv_rate")?.as_f64()?);
            t.start.push(sv.get("start")?.as_f64()?);
            t.finish.push(sv.get("finish")?.as_f64()?);
            t.head_bits.push(sv.get("head_bits")?.as_f64()?);
            t.backlogged.push(sv.get("backlogged")?.as_bool()?);
        }
        Ok(t)
    }
}

/// Serializes per-session pending-stamp queues (the eq. (28) start bases
/// recorded by `arrival_hint` in the GPS-emulating WFQ and WF²Q rank
/// programs).
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
        let mut t = SessionTable::new();
        let s = t.push(0.5, 2.0);
        t.stamp_new_backlog(s, 3.0, 4.0);
        assert_eq!((t.start(s), t.finish(s)), (3.0, 7.0));
        // Continuation: S = F.
        t.stamp_continuation(s, 2.0);
        assert_eq!((t.start(s), t.finish(s)), (7.0, 9.0));
        // Re-backlog with stale V: S = max(F, V) = F.
        t.set_idle(s);
        t.stamp_new_backlog(s, 1.0, 1.0);
        assert_eq!((t.start(s), t.finish(s)), (9.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn rejects_nonpositive_share() {
        let _ = SessionTable::new().push(0.0, 1.0);
    }
}
