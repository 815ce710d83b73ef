//! Overlapped round-robin (after Luangsomboon & Liebeherr, "A Fast
//! Round-Robin Scheduler with Tight Fairness Bounds") as a PIFO rank
//! program.
//!
//! Classic round-robin serves *rounds* as hard barriers: every backlogged
//! session sends its quantum, then the next round starts. This program
//! relaxes the barrier into per-packet integer *finish rounds*:
//!
//! * a session of share `phi` owns `phi * quantum_base` bits of every
//!   round; a packet's finish round is the round in which its **last bit**
//!   fits, so small packets share a round (the per-session `slack` carries
//!   the unconsumed remainder of the finish round) and a large packet
//!   spans `ceil` of its length in quanta;
//! * a packet starts filling at round `max(R, prev_finish)` where `R` is
//!   the round the server is working in and `prev_finish` the session's
//!   previous finish round — a busy session fills consecutive rounds, a
//!   returning one cannot reclaim rounds it slept through (the
//!   round-number analogue of eq. (28)'s `max`) and forfeits stale slack;
//! * the PIFO rank is the **finish round** alone, ties by session id, and
//!   dispatching advances `R` to the served packet's finish round (pops
//!   are min-rank, so `R` — and therefore every rank — is non-decreasing
//!   within a busy period).
//!
//! Because ranks are small integers drawn from the narrow moving window
//! `[R, R + ceil(Lmax/quantum)]`, the hierarchical calendar backend files
//! every insert in its lowest-granularity level and pops in amortized O(1):
//! this program is the round-robin competitor whose dispatch cost stays
//! flat at 1M+ sessions. Unlike DRR's ring sequence the ranks are *not*
//! monotone — a light session backlogging mid-round slots below a heavy
//! packet's distant finish round — so the program runs on the general
//! ranked interface ([`MONOTONE_RANKS`] stays false).
//!
//! Fairness: sessions backlogged together receive within one quantum per
//! round of their share, giving a WFI-style bound of
//! `quantum/phi + Lmax/r` seconds — quantum-granular like DRR
//! (`hpfq-analysis` checks the conservation law and this bound in the
//! scheduler sweeps), not packet-sharp like WF²Q+'s `Lmax` bounds.
//!
//! [`MONOTONE_RANKS`]: RankProgram::MONOTONE_RANKS

use hpfq_obs::snap::{SnapError, Value};

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
use crate::vtime;

/// The overlapped round-robin rank program. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RrRank {
    /// Per-session quantum in bits (`phi * quantum_base`).
    quanta: Vec<f64>,
    /// Per-session finish round of the most recently ranked head; 0 when
    /// the session has never sent this busy period.
    finish: Vec<u64>,
    /// Per-session bits still unconsumed in round `finish[i]` (always in
    /// `[0, quantum)` after ranking): the next head fills these first.
    slack: Vec<f64>,
    /// The round the server is working in: the finish round of the last
    /// dispatched packet. Non-decreasing within a busy period because
    /// dispatch order is finish-round order.
    round: u64,
    quantum_base: f64,
}

impl RrRank {
    /// Default base quantum: one 1500-byte MTU in bits, matching
    /// [`crate::pifo::rank::DrrRank::DEFAULT_QUANTUM_BASE`] so the two
    /// round-robin variants are directly comparable.
    pub const DEFAULT_QUANTUM_BASE: f64 = 12_000.0;

    /// Creates the program with the default quantum base.
    pub fn new() -> Self {
        Self::with_quantum_base(Self::DEFAULT_QUANTUM_BASE)
    }

    /// Creates the program giving a session of share `phi` a quantum of
    /// `phi * quantum_base_bits` per round. Larger quanta mean fewer rounds
    /// per packet (cheaper) but a coarser fairness granularity.
    pub fn with_quantum_base(quantum_base_bits: f64) -> Self {
        assert!(
            quantum_base_bits.is_finite() && quantum_base_bits > 0.0,
            "invalid quantum base {quantum_base_bits}"
        );
        RrRank {
            quanta: Vec::new(),
            finish: Vec::new(),
            slack: Vec::new(),
            round: 0,
            quantum_base: quantum_base_bits,
        }
    }

    /// Ranks a head of `bits`: fill the slack of round `max(R, prev_finish)`
    /// first, then whole quanta per further round; the rank is the round
    /// the last bit lands in. Finish rounds stay far below 2^53 (the
    /// counter resets each busy period), so the `u64 -> f64` rank is exact.
    fn rank_head(&mut self, id: SessionId, bits: f64) -> Rank {
        let start = self.round.max(self.finish[id.0]);
        // lint:allow(L001): integer round counters (u64), not float
        // virtual-time tags — equality is exact
        if start != self.finish[id.0] {
            // The session slept past its last finish round; banked slack in
            // that round is gone (no retroactive service).
            self.finish[id.0] = start;
            self.slack[id.0] = 0.0;
        }
        // Tolerance absorbs float drift from repeated slack updates (same
        // rationale as DRR's deficit comparisons).
        if !vtime::approx_le(bits, self.slack[id.0]) {
            let rest = bits - self.slack[id.0];
            let q = self.quanta[id.0];
            // lint:allow(L005): rest/q <= bits/quantum < 2^53 per the
            // rank_head doc — ceil() of a positive finite float is exact
            let extra = ((rest / q).ceil() as u64).max(1);
            self.finish[id.0] += extra;
            self.slack[id.0] += extra as f64 * q;
        }
        self.slack[id.0] -= bits;
        Rank::open(self.finish[id.0] as f64, 0.0)
    }
}

impl Default for RrRank {
    fn default() -> Self {
        Self::new()
    }
}

impl RankProgram for RrRank {
    fn name(&self) -> &'static str {
        "rr"
    }

    fn on_add_session(&mut self, phi: f64) {
        self.quanta.push(phi * self.quantum_base);
        self.finish.push(0);
        self.slack.push(0.0);
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        self.rank_head(id, head_bits)
    }

    fn rank_continuation(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        bits: f64,
    ) -> Rank {
        self.rank_head(id, bits)
    }

    fn on_dispatch(&mut self, id: SessionId, _sessions: &SessionTable, _thr: f64, _dt: f64) {
        // rank_continuation has not run yet, so finish[id] is still the
        // dispatched head's finish round.
        self.round = self.round.max(self.finish[id.0]);
    }

    fn on_idle(&mut self, id: SessionId) {
        // Like DRR's deficit: a drained session forfeits its leftover round
        // capacity.
        self.slack[id.0] = 0.0;
    }

    fn on_busy_reset(&mut self) {
        self.round = 0;
        self.finish.fill(0);
        self.slack.fill(0.0);
    }

    fn save_state(&self) -> Value {
        Value::map(vec![
            ("quantum_base", Value::F64(self.quantum_base)),
            (
                "quanta",
                Value::List(self.quanta.iter().map(|&q| Value::F64(q)).collect()),
            ),
            (
                "finish",
                Value::List(self.finish.iter().map(|&f| Value::U64(f)).collect()),
            ),
            (
                "slack",
                Value::List(self.slack.iter().map(|&w| Value::F64(w)).collect()),
            ),
            ("round", Value::U64(self.round)),
        ])
    }

    fn load_state(&mut self, state: &Value, sessions: &SessionTable) -> Result<(), SnapError> {
        let quantum_base = state.get("quantum_base")?.as_f64()?;
        if quantum_base.to_bits() != self.quantum_base.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "rr quantum base mismatch: snapshot {quantum_base}, configured {}",
                    self.quantum_base
                ),
            });
        }
        let mut quanta = Vec::new();
        for qv in state.get("quanta")?.items()? {
            quanta.push(qv.as_f64()?);
        }
        let mut finish = Vec::new();
        for fv in state.get("finish")?.items()? {
            finish.push(fv.as_u64()?);
        }
        let mut slack = Vec::new();
        for wv in state.get("slack")?.items()? {
            slack.push(wv.as_f64()?);
        }
        if quanta.len() != sessions.len()
            // lint:allow(L001): vector length check on a snapshot load
            // path, not a virtual-time comparison
            || finish.len() != sessions.len()
            || slack.len() != sessions.len()
        {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "rr quanta/finish/slack counts {}/{}/{} do not match session count {}",
                    quanta.len(),
                    finish.len(),
                    slack.len(),
                    sessions.len()
                ),
            });
        }
        self.quanta = quanta;
        self.finish = finish;
        self.slack = slack;
        self.round = state.get("round")?.as_u64()?;
        Ok(())
    }
}
