//! # hpfq-tcp — a Reno-style TCP model for link-sharing experiments
//!
//! Paper §5.2 drives its hierarchical link-sharing experiment (Figs. 8–9)
//! with TCP sources from MIT NETSIM. NETSIM is not available, so this crate
//! implements the closest behavioural equivalent as an `hpfq-sim`
//! [`hpfq_sim::Source`]: a window-based sender with slow start, congestion avoidance,
//! fast retransmit/recovery (Reno), Jacobson/Karels RTO estimation, and a
//! colocated receiver generating cumulative ACKs.
//!
//! The data path runs through the scheduler under test (queueing, drops at
//! the leaf's drop-tail buffer); the return path is ideal: an ACK reaches
//! the sender a fixed `ack_delay` after the data segment is delivered.
//! What the experiment needs from TCP — sources that adapt their sending
//! rate to whatever bandwidth the hierarchy allocates, probing upward when
//! bandwidth appears and backing off on loss — is exactly what this model
//! provides (see DESIGN.md §3.7 for the substitution note).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reno;

pub use reno::{TcpConfig, TcpSource};
