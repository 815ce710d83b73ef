//! # hpfq-core — Packet Fair Queueing schedulers and the H-PFQ hierarchy
//!
//! This crate implements the scheduling algorithms of *Hierarchical Packet
//! Fair Queueing Algorithms* (Bennett & Zhang, SIGCOMM 1996) on one
//! substrate: [`PifoTree`], a programmable scheduler in the PIFO model of
//! Sivaraman et al. (SIGCOMM 2016), drives a per-policy [`RankProgram`]
//! over a pluggable priority structure ([`PifoBackend`]).
//!
//! * [`SchedulerKind`] names the policies and builds a node:
//!   `SchedulerKind::Wf2qPlus.build(rate)` returns a [`MixedScheduler`]
//!   running that policy's rank program on the SoA dual heap
//!   ([`DualHeapEligibleSet`]); [`SchedulerKind::build_on`] picks another
//!   backend, such as the amortized-O(1) [`CalendarEligibleSet`].
//! * The rank programs in [`pifo::rank`]: WF²Q+ — the paper's
//!   contribution, a Smallest-Eligible-virtual-Finish-time-First (SEFF)
//!   scheduler driven by the low-complexity virtual time of eq. (27),
//!   O(log N) per packet; the WFQ and WF²Q baselines, which track the
//!   exact GPS fluid virtual time (O(N) worst case, see [`GpsClock`]); and
//!   SCFQ, SFQ, DRR, FIFO and overlapped round robin, the low-complexity
//!   schedulers of the paper's related-work discussion.
//! * [`Hierarchy`] — the H-PFQ construction of §4: a tree of one-level
//!   schedulers implementing the paper's ARRIVE / RESTART-NODE / RESET-PATH
//!   pseudocode, generic over the node scheduler (H-WFQ, H-SCFQ, H-WF²Q+, …).
//!
//! Each rank program is held byte-identical to an independent hand-rolled
//! implementation of its policy by the differential suite in the
//! repository's `tests/pifo_equivalence.rs`; see the [`pifo`] module docs.
//!
//! ## Conventions
//!
//! * Real (simulation) time and *reference time* (§4.1 of the paper,
//!   `T_n(t) = W_n(0,t) / r_n`) are `f64` seconds.
//! * Virtual time is `f64` in reference-time seconds; a session with
//!   guaranteed rate `r_i` advances its virtual finish tag by `L / r_i` per
//!   packet of `L` bits.
//! * Rates are bits/second; packet lengths are bytes on the wire and bits in
//!   the scheduler maths.
//!
//! A one-level (standalone) server is a depth-1 [`Hierarchy`]; the root's
//! reference time coincides with real time during busy periods (paper
//! eq. 32).

#![forbid(unsafe_code)]
// Unsafe audit (PR 2): zero `unsafe` blocks exist anywhere in the
// workspace and `forbid(unsafe_code)` keeps it that way; the lint below
// is belt-and-braces so that if the forbid is ever relaxed, any unsafe
// fn body still requires explicit `unsafe {}` blocks.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod eligible;
pub mod error;
pub mod gps_clock;
pub mod hierarchy;
pub mod mixed;
pub mod packet;
pub mod pifo;
pub mod scheduler;

/// Canonical virtual-time comparison helpers (single `EPS`, tolerance-aware
/// and exact comparisons). Implemented in `hpfq-obs` — the root of the
/// dependency graph, so the observers can share the same tolerance — and
/// re-exported here as this crate's approved comparison module (`hpfq-lint`
/// rules L001/L003 enforce its use).
pub use hpfq_obs::vtime;

pub use eligible::{
    calendar::CalendarEligibleSet, dual_heap::DualHeapEligibleSet, EligibleSet, PifoBackend,
};
pub use error::HpfqError;
pub use gps_clock::GpsClock;
pub use hierarchy::{Hierarchy, HierarchyBuilder, NodeId};
pub use mixed::{MixedScheduler, SchedulerKind};
pub use packet::Packet;
pub use pifo::{Admission, PifoTree, Rank, RankProgram, Threshold};
pub use scheduler::{NodeScheduler, SessionId, SessionTable};

/// Converts a packet length in bytes to bits.
#[inline]
pub fn bits(len_bytes: u32) -> f64 {
    f64::from(len_bytes) * 8.0
}
