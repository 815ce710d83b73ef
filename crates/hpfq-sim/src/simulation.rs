//! The single-link front-end: [`Simulation`] is a thin wrapper over a
//! one-link [`Network`], kept for the (large) body of depth-1 experiments
//! and as the stable API from earlier releases.
//!
//! The event machinery lives in [`crate::network`] on top of the shared
//! [`hpfq_events::Engine`]; this module only adds the single-link sugar:
//! [`SourceConfig`] instead of a one-hop [`Route`], no-argument
//! `link_rate`/`server`/`observer` accessors, and `Deref` to the
//! underlying network for everything else (`stats`, `run`,
//! `schedule_command`, conservation checks, …).
//!
//! Event model (deterministic: ties fire in scheduling order):
//!
//! * `Wake(source)` — a source timer fires; emitted packets are enqueued at
//!   the source's leaf (subject to its drop-tail buffer) and the link
//!   starts transmitting if idle.
//! * `TxComplete` — the link finishes a packet: the hierarchy runs
//!   RESET-PATH / RESTART-NODE (pre-selecting the next head), the service
//!   is recorded, a `Deliver` is scheduled after the source's one-way
//!   delivery delay, and the next transmission starts immediately (work
//!   conservation).
//! * `Deliver(source, pkt)` — the packet reached its destination;
//!   closed-loop sources (TCP) use this for ACK clocking.
//! * `Command(idx)` — a pre-scheduled [`SimCommand`] fires: the link rate
//!   changes (possibly to 0 — an outage), or a flow joins or leaves the
//!   hierarchy mid-run (churn).
//!
//! A one-link [`Network`] driven through this wrapper replays the legacy
//! single-link simulator byte-for-byte (the golden-trace test in
//! `tests/network_vs_simulation.rs` pins this down).

use std::ops::{Deref, DerefMut};

use hpfq_core::{Hierarchy, NodeId, NodeScheduler};
use hpfq_obs::{NoopObserver, Observer};

use crate::network::{Network, Route, SourceId};
use crate::source::Source;

/// Per-source attachment configuration (single-link form; the multi-hop
/// equivalent is a [`Route`]).
#[derive(Debug, Clone, Copy)]
pub struct SourceConfig {
    /// Leaf of the hierarchy this source feeds.
    pub leaf: NodeId,
    /// Drop-tail buffer limit for that leaf in bytes (`None` = unbounded).
    pub buffer_bytes: Option<u64>,
    /// One-way delay from transmission completion to delivery notification
    /// (`on_delivered`); models the downstream path for ACK clocking.
    pub delivery_delay: f64,
}

impl SourceConfig {
    /// Open-loop attachment: unbounded buffer, no delivery notifications
    /// needed (delay 0; notifications are still generated but cheap).
    pub fn open_loop(leaf: NodeId) -> Self {
        SourceConfig {
            leaf,
            buffer_bytes: None,
            delivery_delay: 0.0,
        }
    }
}

/// A single-link simulation: a [`Network`] with exactly one link. Build
/// the [`Hierarchy`] first, attach sources, then [`Simulation::run`].
///
/// The hierarchy's [`Observer`] (second type parameter, default
/// [`NoopObserver`]) sees every scheduling event; the simulator adds the
/// events only it can know: exact transmission times and buffer drops.
///
/// Everything beyond the single-link conveniences below — `run`,
/// `schedule_command`, `stats`, `strike`, `verify_conservation`,
/// `set_fault_injector`, … — derefs to [`Network`].
pub struct Simulation<S: NodeScheduler, O: Observer = NoopObserver> {
    net: Network<S, O>,
}

impl<S: NodeScheduler, O: Observer> Deref for Simulation<S, O> {
    type Target = Network<S, O>;

    fn deref(&self) -> &Network<S, O> {
        &self.net
    }
}

impl<S: NodeScheduler, O: Observer> DerefMut for Simulation<S, O> {
    fn deref_mut(&mut self) -> &mut Network<S, O> {
        &mut self.net
    }
}

impl<S: NodeScheduler, O: Observer> Simulation<S, O> {
    /// Wraps a fully built hierarchy into a one-link simulation.
    pub fn new(server: Hierarchy<S, O>) -> Self {
        let mut net = Network::new();
        net.add_link(server);
        Simulation { net }
    }

    /// The underlying multi-link network (this wrapper's link is index 0).
    pub fn network(&self) -> &Network<S, O> {
        &self.net
    }

    /// The underlying multi-link network, mutably.
    pub fn network_mut(&mut self) -> &mut Network<S, O> {
        &mut self.net
    }

    /// Consumes the wrapper, returning the underlying network.
    pub fn into_network(self) -> Network<S, O> {
        self.net
    }

    /// The link's current service rate in bits/s (0 during an outage).
    pub fn link_rate(&self) -> f64 {
        self.net.link_rate(0)
    }

    /// Read access to the hierarchy (e.g. for queue inspection).
    pub fn server(&self) -> &Hierarchy<S, O> {
        self.net.link_server(0)
    }

    /// The hierarchy's observer (e.g. to read counters or recover a trace
    /// buffer after the run).
    pub fn observer(&self) -> &O {
        self.net.observer_of(0)
    }

    /// The hierarchy's observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        self.net.observer_of_mut(0)
    }

    /// Consumes the simulation, returning the observer.
    pub fn into_observer(self) -> O {
        self.net
            .into_observers()
            .pop()
            // Teardown, unreachable from the engine entry points:
            // `Simulation::new` constructs exactly one link.
            .expect("a Simulation always owns exactly one link")
    }

    /// Attaches a source that feeds `cfg.leaf`. `flow` is the flow id the
    /// source stamps on its packets (used to route delivery notifications
    /// back to it).
    pub fn add_source(
        &mut self,
        flow: u32,
        source: impl Source + 'static,
        cfg: SourceConfig,
    ) -> SourceId {
        self.net.add_route(
            flow,
            source,
            Route::single(cfg.leaf, cfg.buffer_bytes, cfg.delivery_delay),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{FaultInjector, PacketVerdict, SimCommand};
    use crate::source::{CbrSource, GreedyLbSource};
    use hpfq_core::{MixedScheduler, Packet, SchedulerKind};
    use hpfq_obs::EscalationPolicy;

    fn server(rate: f64) -> Hierarchy<MixedScheduler> {
        Hierarchy::builder(rate, |r| SchedulerKind::Wf2qPlus.build(r)).build()
    }

    /// Two equal CBR flows at half the link rate each: no queueing beyond
    /// one packet, all traffic delivered.
    #[test]
    fn two_cbr_flows_fit() {
        let mut h = server(16_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Simulation::new(h);
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 100.0),
            SourceConfig::open_loop(a),
        );
        sim.add_source(
            1,
            CbrSource::new(1, 1000, 8000.0, 0.0, 100.0),
            SourceConfig::open_loop(b),
        );
        sim.run(10.0);
        let fa = sim.stats.flow(0);
        let fb = sim.stats.flow(1);
        assert!(fa.packets >= 9 && fb.packets >= 9, "{fa:?} {fb:?}");
        // Each packet takes 0.5 s on the wire; worst-case head-of-line wait
        // is one competing packet.
        assert!(fa.delay_max <= 1.0 + 1e-9, "{}", fa.delay_max);
        assert!(fb.delay_max <= 1.0 + 1e-9);
        sim.verify_conservation().unwrap();
    }

    /// A greedy leaky-bucket flow against a backlogged competitor respects
    /// the WF²Q+ delay bound σ/r_i + L_max/r (Theorem 4(3)).
    #[test]
    fn delay_bound_holds_depth_one() {
        let rate = 80_000.0;
        let mut h = server(rate);
        let root = h.root();
        let a = h.add_leaf(root, 0.25).unwrap(); // r_a = 20 kbit/s
        let b = h.add_leaf(root, 0.75).unwrap();
        let mut sim = Simulation::new(h);
        // sigma = 5 packets of 1000 bytes, rho = r_a.
        sim.add_source(
            0,
            GreedyLbSource::new(0, 1000, 5000, 20_000.0, 0.0, 50.0),
            SourceConfig::open_loop(a),
        );
        // Competitor saturates its share.
        sim.add_source(
            1,
            CbrSource::new(1, 1000, 70_000.0, 0.0, 50.0),
            SourceConfig::open_loop(b),
        );
        sim.stats.trace_flow(0);
        sim.run(60.0);
        let sigma_bits = 5000.0 * 8.0;
        let bound = sigma_bits / 20_000.0 + 8000.0 / rate;
        for rec in sim.stats.trace(0) {
            assert!(
                rec.delay() <= bound + 1e-9,
                "packet {} delayed {} > bound {}",
                rec.id,
                rec.delay(),
                bound
            );
        }
        assert!(sim.stats.flow(0).packets > 100);
        sim.verify_conservation().unwrap();
    }

    /// Drop-tail buffers drop exactly the overflow.
    #[test]
    fn buffer_drops() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Simulation::new(h);
        // Burst of 10 packets into a 3-packet buffer; service drains one
        // per second.
        sim.add_source(
            0,
            GreedyLbSource::new(0, 1000, 10_000, 1.0, 0.0, 0.5),
            SourceConfig {
                leaf: a,
                buffer_bytes: Some(3000),
                delivery_delay: 0.0,
            },
        );
        sim.run(100.0);
        let f = sim.stats.flow(0);
        assert_eq!(f.packets, 3);
        assert_eq!(f.drops, 7);
        sim.verify_conservation().unwrap();
    }

    /// The event arena reuses fired slots: a long run with a bounded number
    /// of concurrently outstanding events must not grow memory linearly
    /// with the packet count.
    #[test]
    fn event_arena_stays_bounded() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Simulation::new(h);
        sim.add_source(
            0,
            CbrSource::new(0, 500, 6000.0, 0.0, 1e9),
            SourceConfig::open_loop(a),
        );
        sim.add_source(
            1,
            CbrSource::new(1, 500, 6000.0, 0.0, 1e9),
            SourceConfig::open_loop(b),
        );
        sim.run(500.0);
        // ~1500 packets served; per live source there is at most one wake,
        // one in-flight TxComplete, and one pending Deliver at a time.
        assert!(sim.stats.total_packets > 900, "{}", sim.stats.total_packets);
        assert!(
            sim.event_arena_len() <= 16,
            "event arena grew to {} slots for {} packets",
            sim.event_arena_len(),
            sim.stats.total_packets
        );
        assert!(sim.outstanding_events() <= sim.event_arena_len());
        sim.verify_conservation().unwrap();
    }

    /// Work conservation: link is never idle while traffic is queued —
    /// verified by total throughput equal to capacity over a saturated
    /// window.
    #[test]
    fn work_conserving_throughput() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Simulation::new(h);
        // Both flows offer 1.5x their share: link saturated.
        sim.add_source(
            0,
            CbrSource::new(0, 500, 6000.0, 0.0, 1000.0),
            SourceConfig::open_loop(a),
        );
        sim.add_source(
            1,
            CbrSource::new(1, 500, 6000.0, 0.0, 1000.0),
            SourceConfig::open_loop(b),
        );
        sim.run(100.0);
        // 100 s at 8 kbit/s = 100_000 bytes, minus sub-packet slack.
        assert!(
            sim.stats.total_bytes >= 99_000,
            "{} bytes",
            sim.stats.total_bytes
        );
        // Fair split.
        let ra = sim.stats.flow(0).bytes as f64;
        let rb = sim.stats.flow(1).bytes as f64;
        assert!((ra / rb - 1.0).abs() < 0.02, "{ra} vs {rb}");
        sim.verify_conservation().unwrap();
    }

    /// A link outage suspends the in-flight packet and resumes it with its
    /// already-sent bits credited; every offered packet is still served.
    #[test]
    fn outage_suspends_and_resumes_inflight() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Simulation::new(h);
        // 1000-byte packets at exactly link rate: one per second, t=0..9.
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 10.0),
            SourceConfig::open_loop(a),
        );
        // Outage from 2.5 s to 4.5 s: the packet in service (started at
        // 2.0) is half-sent; it must finish 0.5 s after recovery.
        sim.schedule_command(2.5, SimCommand::SetLinkRate(0.0));
        sim.schedule_command(4.5, SimCommand::SetLinkRate(8000.0));
        sim.run(30.0);
        assert_eq!(sim.stats.flow(0).packets, 10);
        // 10 s of work + 2 s outage.
        assert!(
            (sim.stats.last_departure - 12.0).abs() < 1e-9,
            "{}",
            sim.stats.last_departure
        );
        assert!(sim.command_errors.is_empty(), "{:?}", sim.command_errors);
        sim.verify_conservation().unwrap();
    }

    /// A mid-transmission rate change rescales the in-flight packet's
    /// completion instead of letting the stale completion fire.
    #[test]
    fn rate_change_mid_packet_rescales_completion() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Simulation::new(h);
        // One isolated packet at t=0 (1 s at 8 kbit/s).
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 0.5),
            SourceConfig::open_loop(a),
        );
        // At 0.5 s (half sent) the link halves: remaining 4000 bits at
        // 4 kbit/s take 1 s more -> completes at 1.5 s.
        sim.schedule_command(0.5, SimCommand::SetLinkRate(4_000.0));
        sim.run(10.0);
        assert_eq!(sim.stats.flow(0).packets, 1);
        assert!(
            (sim.stats.last_departure - 1.5).abs() < 1e-9,
            "{}",
            sim.stats.last_departure
        );
        sim.verify_conservation().unwrap();
    }

    /// Flow churn via commands: a flow joins mid-run, competes, and leaves
    /// with its backlog purged and accounted.
    #[test]
    fn churn_commands_add_and_remove_flows() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Simulation::new(h);
        // Flow 0 saturates the link alone.
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 30.0),
            SourceConfig::open_loop(a),
        );
        // Flow 1 joins at t=5 offering its full share, leaves at t=15
        // while backlogged (it offered 8 kbit/s but was served 4 kbit/s).
        sim.schedule_command(
            5.0,
            SimCommand::AddFlow {
                parent: root,
                phi: 0.5,
                flow: 1,
                source: Box::new(CbrSource::new(1, 1000, 8000.0, 5.0, 15.0)),
                buffer_bytes: None,
                delivery_delay: 0.0,
            },
        );
        sim.schedule_command(15.0, SimCommand::RemoveFlow(1));
        sim.run(40.0);
        assert!(sim.command_errors.is_empty(), "{:?}", sim.command_errors);
        let f1 = sim.stats.flow(1);
        assert!(f1.packets > 0, "joined flow was never served");
        assert!(
            f1.purged_packets > 0,
            "backlogged leaver should have purged packets: {f1:?}"
        );
        // Flow 0 is whole: everything it offered was eventually served.
        let f0 = sim.stats.flow(0);
        assert_eq!(f0.offered_packets, f0.packets);
        sim.verify_conservation().unwrap();
    }

    /// An injector that corrupts every packet of one flow in flight.
    struct CorruptFlow(u32);

    impl FaultInjector for CorruptFlow {
        fn on_packet(&mut self, _now: f64, pkt: &mut Packet) -> PacketVerdict {
            if pkt.flow == self.0 {
                pkt.len_bytes = 0;
                PacketVerdict::Corrupted
            } else {
                PacketVerdict::Pass
            }
        }
    }

    /// Corrupted packets strike their flow; at the third strike the flow is
    /// quarantined while the healthy flow keeps its service. Nothing
    /// panics and conservation holds throughout.
    #[test]
    fn corrupting_flow_is_quarantined_after_three_strikes() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Simulation::new(h);
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 6000.0, 0.0, 20.0),
            SourceConfig::open_loop(a),
        );
        sim.add_source(
            1,
            CbrSource::new(1, 1000, 6000.0, 0.0, 20.0),
            SourceConfig::open_loop(b),
        );
        sim.set_fault_injector(CorruptFlow(1));
        sim.set_escalation_policy(EscalationPolicy::standard());
        sim.run(30.0);
        assert!(sim.escalation().is_quarantined(1));
        assert!(!sim.is_halted());
        let f1 = sim.stats.flow(1);
        assert_eq!(f1.packets, 0, "no corrupted packet may be served");
        assert_eq!(f1.fault_drops, 3, "struck out after three invalid packets");
        let f0 = sim.stats.flow(0);
        assert_eq!(f0.offered_packets, f0.packets);
        sim.verify_conservation().unwrap();
    }

    /// Under the strict policy a single invalid packet halts the run —
    /// cleanly, with accounting still balanced.
    #[test]
    fn strict_policy_halts_on_first_invalid_packet() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Simulation::new(h);
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 20.0),
            SourceConfig::open_loop(a),
        );
        sim.set_fault_injector(CorruptFlow(0));
        sim.set_escalation_policy(EscalationPolicy::strict());
        sim.run(30.0);
        assert!(sim.is_halted());
        assert_eq!(sim.stats.flow(0).fault_drops, 1);
        sim.verify_conservation().unwrap();
    }

    /// An injector dropping every other packet of every flow.
    struct DropAlternate(u64);

    impl FaultInjector for DropAlternate {
        fn on_packet(&mut self, _now: f64, _pkt: &mut Packet) -> PacketVerdict {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                PacketVerdict::Drop
            } else {
                PacketVerdict::Pass
            }
        }
    }

    /// Injected drops are accounted separately from buffer drops and keep
    /// the books balanced.
    #[test]
    fn injected_drops_are_accounted() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Simulation::new(h);
        sim.add_source(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 10.0),
            SourceConfig::open_loop(a),
        );
        sim.set_fault_injector(DropAlternate(0));
        sim.run(30.0);
        let f = sim.stats.flow(0);
        assert_eq!(f.offered_packets, 10);
        assert_eq!(f.fault_drops, 5);
        assert_eq!(f.packets, 5);
        assert_eq!(f.drops, 0);
        sim.verify_conservation().unwrap();
    }
}
