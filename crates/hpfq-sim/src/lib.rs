//! # hpfq-sim — discrete-event network simulator for H-PFQ experiments
//!
//! A discrete-event network simulator standing in for the modified MIT
//! NETSIM the paper used (§5). It drives H-PFQ [`hpfq_core::Hierarchy`]
//! instances as output-link schedulers — one per link of a [`Network`],
//! the only way to build and run a simulation (a single-link experiment
//! is a one-link network: [`Network::add_link`] plus [`Route::single`]) —
//! on top of the shared [`hpfq_events`] engine, and provides:
//!
//! * the paper's traffic sources — constant rate (PS-n), deterministic
//!   on/off (RT-1 and the §5.2 on/off sources), Poisson, multiplexed
//!   packet trains (CS-n) — plus trace replay and a greedy leaky-bucket
//!   source for delay-bound experiments ([`source`]);
//! * per-leaf drop-tail buffers and delivery notifications with a
//!   configurable one-way delay (the hook the TCP crate uses for ACK
//!   feedback);
//! * multi-link topologies ([`network`]): each link owns its own
//!   hierarchy, flows follow static per-hop [`Route`]s with propagation
//!   delays, and per-link conservation ledgers make multi-hop accounting
//!   checkable;
//! * measurement: per-packet service records, per-flow aggregates, and the
//!   exponentially-averaged windowed bandwidth estimator of §5.2
//!   ([`stats`]).
//!
//! Events at equal timestamps fire in scheduling order, so runs are fully
//! deterministic given source seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
pub mod parallel;
pub mod rng;
pub mod snapshot;
pub mod source;
pub mod stats;

pub use network::{
    FaultInjector, Hop, LinkLedger, Network, NoFaults, PacketVerdict, Route, SimCommand, SourceId,
};
pub use parallel::{FallbackReason, ParallelReport, ShardFailure};
pub use rng::SmallRng;
pub use source::{
    load_source, CbrSource, GreedyLbSource, PacketTrainSource, PeriodicOnOffSource, PoissonSource,
    ScheduledOnOffSource, Source, SourceOutput, TraceSource,
};
pub use stats::{BandwidthEstimator, FlowStats, ServiceRecord, SimStats};
