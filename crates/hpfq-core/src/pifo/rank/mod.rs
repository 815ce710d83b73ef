//! The eight in-tree rank programs — one per [`SchedulerKind`]. Seven are
//! proven byte-identical to a hand-rolled implementation of their policy
//! by `tests/pifo_equivalence.rs`, against the test-only differential
//! oracle in `tests/oracle/`. (The overlapped round-robin program
//! [`RrRank`] is PIFO-native: it has no hand-rolled counterpart and
//! therefore no oracle entry.)
//!
//! [`crate::MixedScheduler`] holds a monomorphized `PifoTree<P>` per
//! program (rather than one tree over a program *enum*) so each policy's
//! driver specializes and inlines its rank hooks — the enum indirection
//! cost double-digit percent on the cheap policies (FIFO, DRR).
//!
//! [`SchedulerKind`]: crate::mixed::SchedulerKind

pub mod drr;
pub mod fifo;
pub mod rr;
pub mod scfq;
pub mod sfq;
pub mod wf2q;
pub mod wf2q_plus;
pub mod wfq;

pub use drr::DrrRank;
pub use fifo::FifoRank;
pub use rr::RrRank;
pub use scfq::ScfqRank;
pub use sfq::SfqRank;
pub use wf2q::Wf2qRank;
pub use wf2q_plus::Wf2qPlusRank;
pub use wfq::WfqRank;
