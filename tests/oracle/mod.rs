//! The differential oracle: hand-rolled, per-policy implementations of
//! seven of the `SchedulerKind` policies, written independently of the
//! PIFO substrate (`PifoTree` plus rank programs) that the library ships.
//! `tests/pifo_equivalence.rs` drives each rank program in lockstep with
//! its counterpart here and requires bit-identical dispatch decisions,
//! tags, virtual times, traces and snapshots.
//!
//! Test-only: include it with `mod oracle;` from an integration test.

// Each including test uses a different subset of the oracle's API.
#![allow(dead_code)]

pub mod drr;
pub mod fifo;
pub mod scfq;
pub mod scheduler;
pub mod sfq;
mod tag_heap;
pub mod wf2q;
pub mod wf2q_plus;
pub mod wfq;

use hpfq_core::SchedulerKind;
use hpfq_obs::snap::{SnapError, Value};

use scheduler::{NodeScheduler, SessionId};

/// One hand-rolled scheduler, chosen at runtime by [`build`].
#[derive(Debug, Clone)]
pub enum Oracle {
    Wf2qPlus(wf2q_plus::Wf2qPlus),
    Wfq(wfq::Wfq),
    Wf2q(wf2q::Wf2q),
    Scfq(scfq::Scfq),
    Sfq(sfq::Sfq),
    Drr(drr::Drr),
    Fifo(fifo::Fifo),
}

/// Whether the oracle has a hand-rolled implementation of `kind` (the
/// overlapped round robin is PIFO-native and has none).
pub fn covers(kind: SchedulerKind) -> bool {
    !matches!(kind, SchedulerKind::Rr)
}

/// Builds the hand-rolled scheduler of `kind` for a server of `rate_bps`.
/// Panics on a kind the oracle does not [`covers`].
pub fn build(kind: SchedulerKind, rate_bps: f64) -> Oracle {
    match kind {
        SchedulerKind::Wf2qPlus => Oracle::Wf2qPlus(wf2q_plus::Wf2qPlus::new(rate_bps)),
        SchedulerKind::Wfq => Oracle::Wfq(wfq::Wfq::new(rate_bps)),
        SchedulerKind::Wf2q => Oracle::Wf2q(wf2q::Wf2q::new(rate_bps)),
        SchedulerKind::Scfq => Oracle::Scfq(scfq::Scfq::new(rate_bps)),
        SchedulerKind::Sfq => Oracle::Sfq(sfq::Sfq::new(rate_bps)),
        SchedulerKind::Drr => Oracle::Drr(drr::Drr::new(rate_bps)),
        SchedulerKind::Fifo => Oracle::Fifo(fifo::Fifo::new(rate_bps)),
        SchedulerKind::Rr => panic!("rr is PIFO-native and has no hand-rolled original"),
    }
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            Oracle::Wf2qPlus($inner) => $body,
            Oracle::Wfq($inner) => $body,
            Oracle::Wf2q($inner) => $body,
            Oracle::Scfq($inner) => $body,
            Oracle::Sfq($inner) => $body,
            Oracle::Drr($inner) => $body,
            Oracle::Fifo($inner) => $body,
        }
    };
}

impl NodeScheduler for Oracle {
    fn rate_bps(&self) -> f64 {
        dispatch!(self, s => s.rate_bps())
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        dispatch!(self, s => s.add_session(phi))
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        dispatch!(self, s => s.backlog(id, head_bits, ref_now))
    }

    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        dispatch!(self, s => s.arrival_hint(id, bits, ref_now))
    }

    fn select_next(&mut self) -> Option<SessionId> {
        dispatch!(self, s => s.select_next())
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        dispatch!(self, s => s.requeue(id, next_head_bits))
    }

    fn backlogged(&self) -> usize {
        dispatch!(self, s => s.backlogged())
    }

    fn virtual_time(&self) -> f64 {
        dispatch!(self, s => s.virtual_time())
    }

    fn phi(&self, id: SessionId) -> f64 {
        dispatch!(self, s => s.phi(id))
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        dispatch!(self, s => s.tags(id))
    }

    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    fn set_is_root(&mut self, is_root: bool) {
        dispatch!(self, s => s.set_is_root(is_root))
    }

    fn save_state(&self) -> Value {
        dispatch!(self, s => s.save_state())
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        dispatch!(self, s => s.load_state(state))
    }
}
