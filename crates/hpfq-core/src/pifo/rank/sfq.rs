//! SFQ (Goyal, Vin & Cheng, SIGCOMM '96) as a PIFO rank program.
//!
//! Start-time fair queueing: tags are computed as in SCFQ, the virtual
//! time is the *start* tag of the packet in service, and heads are ranked
//! `(start, finish)` with ties by session id — smallest start tag first.

use hpfq_obs::snap::{SnapError, Value};

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};

/// The SFQ rank program. Byte-identical to the hand-rolled SFQ scheduler
/// of the differential oracle (`tests/oracle/`).
#[derive(Debug, Clone, Default)]
pub struct SfqRank {
    /// Virtual time = start tag of the packet most recently dispatched.
    v: f64,
}

impl SfqRank {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RankProgram for SfqRank {
    fn name(&self) -> &'static str {
        "sfq"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        sessions.stamp_new_backlog(id, self.v, head_bits);
        Rank::open(sessions.start(id), sessions.finish(id))
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Rank::open(sessions.start(id), sessions.finish(id))
    }

    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, _thr: f64, _dt: f64) {
        self.v = sessions.start(id);
    }

    fn on_busy_reset(&mut self) {
        self.v = 0.0;
    }

    fn virtual_time(&self, _ref_time: f64) -> f64 {
        self.v
    }

    fn save_state(&self) -> Value {
        Value::map(vec![("v", Value::F64(self.v))])
    }

    fn load_state(&mut self, state: &Value, _sessions: &SessionTable) -> Result<(), SnapError> {
        self.v = state.get("v")?.as_f64()?;
        Ok(())
    }
}
