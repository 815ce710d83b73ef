//! DRR (Shreedhar & Varghese, SIGCOMM '95; paper §6) as a PIFO rank
//! program.
//!
//! The round-robin ring becomes a monotone sequence counter: the ring
//! front is the minimum sequence value, rotating to the back assigns the
//! next value. Deficit accounting runs in [`RankProgram::admit`] — the one
//! policy exercising [`Admission::Rotate`]: each visit credits the
//! session's quantum, the head is served while it fits in the deficit, and
//! an oversized head rotates away un-crediting its turn so the deficit
//! carries over (oversized packets eventually send).
//!
//! Sequence-order equals ring-order by induction: backlog appends
//! (`push_back`), rotation re-assigns the maximum (`rotate_left`), a
//! serve-continuation keeps its old value — which remains the minimum,
//! since the session was at the front when popped and every assignment
//! since was larger.
//!
//! [`Admission::Rotate`]: crate::pifo::Admission::Rotate

use hpfq_obs::snap::{SnapError, Value};

use crate::pifo::{Admission, Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};
use crate::vtime;

/// Per-session deficit accounting.
#[derive(Debug, Clone)]
struct DrrSlot {
    /// Quantum credited at the start of each round-robin turn, in bits.
    quantum: f64,
    /// Unused credit in bits. Carries across rounds while the head packet
    /// exceeds it; reset when the session drains.
    deficit: f64,
    /// Whether the quantum for the current turn has been credited.
    turn_credited: bool,
}

/// The DRR rank program. Byte-identical to the hand-rolled DRR scheduler
/// of the differential oracle (`tests/oracle/`).
#[derive(Debug, Clone)]
pub struct DrrRank {
    slots: Vec<DrrSlot>,
    /// Per-session ring position (see the module docs).
    seq: Vec<f64>,
    /// Next sequence value to hand out.
    next: f64,
    quantum_base: f64,
}

impl DrrRank {
    /// Default base quantum: one 1500-byte MTU in bits. A session of share
    /// `phi` receives `phi * base` bits per round.
    pub const DEFAULT_QUANTUM_BASE: f64 = 12_000.0;

    /// Creates the program with the default quantum base.
    pub fn new() -> Self {
        Self::with_quantum_base(Self::DEFAULT_QUANTUM_BASE)
    }

    /// Creates the program crediting `phi * quantum_base_bits` per turn.
    /// Larger quanta lower the per-packet overhead but increase burstiness
    /// (and the WFI).
    pub fn with_quantum_base(quantum_base_bits: f64) -> Self {
        assert!(
            quantum_base_bits.is_finite() && quantum_base_bits > 0.0,
            "invalid quantum base {quantum_base_bits}"
        );
        DrrRank {
            slots: Vec::new(),
            seq: Vec::new(),
            next: 0.0,
            quantum_base: quantum_base_bits,
        }
    }

    fn next_seq(&mut self, id: SessionId) -> f64 {
        self.seq[id.0] = self.next;
        self.next += 1.0;
        self.seq[id.0]
    }
}

impl Default for DrrRank {
    fn default() -> Self {
        Self::new()
    }
}

impl RankProgram for DrrRank {
    // Ring discipline: backlog/rotation ranks are fresh maxima, and the
    // in-deficit continuation re-offers the minimum it was popped with
    // (see the module docs' induction argument).
    const MONOTONE_RANKS: bool = true;

    fn name(&self) -> &'static str {
        "drr"
    }

    fn on_add_session(&mut self, phi: f64) {
        self.slots.push(DrrSlot {
            quantum: phi * self.quantum_base,
            deficit: 0.0,
            turn_credited: false,
        });
        self.seq.push(0.0);
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        _head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        let slot = &mut self.slots[id.0];
        slot.deficit = 0.0;
        slot.turn_credited = false;
        Rank::open(self.next_seq(id), 0.0)
    }

    fn admit(&mut self, id: SessionId, sessions: &SessionTable) -> Admission {
        let slot = &mut self.slots[id.0];
        if !slot.turn_credited {
            slot.deficit += slot.quantum;
            slot.turn_credited = true;
        }
        // Tolerance absorbs float drift from repeated credits.
        let head_bits = sessions.head_bits(id);
        if vtime::approx_le(head_bits, slot.deficit) {
            slot.deficit -= head_bits;
            Admission::Serve
        } else {
            // Head does not fit: next turn (deficit carries over so the
            // packet eventually sends even if it exceeds one quantum).
            slot.turn_credited = false;
            Admission::Rotate(Rank::open(self.next_seq(id), 0.0))
        }
    }

    fn rank_continuation(
        &mut self,
        id: SessionId,
        _sessions: &mut SessionTable,
        bits: f64,
    ) -> Rank {
        let slot = &mut self.slots[id.0];
        // The front session keeps its turn (and its ring position — the old
        // sequence value is still the minimum) while the deficit covers the
        // next head; otherwise its turn ends and it rotates to the back.
        if vtime::strictly_after(bits, slot.deficit) {
            slot.turn_credited = false;
            return Rank::open(self.next_seq(id), 0.0);
        }
        Rank::open(self.seq[id.0], 0.0)
    }

    fn on_idle(&mut self, id: SessionId) {
        let slot = &mut self.slots[id.0];
        slot.deficit = 0.0;
        slot.turn_credited = false;
    }

    fn on_busy_reset(&mut self) {
        // No live offers remain; restart the sequence counter (deficits
        // were already zeroed per-session as each drained).
        self.next = 0.0;
    }

    fn save_state(&self) -> Value {
        Value::map(vec![
            ("quantum_base", Value::F64(self.quantum_base)),
            (
                "slots",
                Value::List(
                    self.slots
                        .iter()
                        .map(|s| {
                            Value::map(vec![
                                ("quantum", Value::F64(s.quantum)),
                                ("deficit", Value::F64(s.deficit)),
                                ("turn_credited", Value::Bool(s.turn_credited)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "seq",
                Value::List(self.seq.iter().map(|&q| Value::F64(q)).collect()),
            ),
            ("next", Value::F64(self.next)),
        ])
    }

    fn load_state(&mut self, state: &Value, sessions: &SessionTable) -> Result<(), SnapError> {
        let quantum_base = state.get("quantum_base")?.as_f64()?;
        if quantum_base.to_bits() != self.quantum_base.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "drr quantum base mismatch: snapshot {quantum_base}, configured {}",
                    self.quantum_base
                ),
            });
        }
        let mut slots = Vec::new();
        for sv in state.get("slots")?.items()? {
            slots.push(DrrSlot {
                quantum: sv.get("quantum")?.as_f64()?,
                deficit: sv.get("deficit")?.as_f64()?,
                turn_credited: sv.get("turn_credited")?.as_bool()?,
            });
        }
        let mut seq = Vec::new();
        for qv in state.get("seq")?.items()? {
            seq.push(qv.as_f64()?);
        }
        if slots.len() != sessions.len() || seq.len() != sessions.len() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "drr slot/seq counts {}/{} do not match session count {}",
                    slots.len(),
                    seq.len(),
                    sessions.len()
                ),
            });
        }
        self.slots = slots;
        self.seq = seq;
        self.next = state.get("next")?.as_f64()?;
        Ok(())
    }
}
