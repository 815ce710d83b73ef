//! The Fig. 3 delay-experiment hierarchy (§5.1), reconstructed.
//!
//! ```text
//! N-R (45 Mbit/s link)
//! ├── N-2 (22.5 Mbit/s, φ=0.5)
//! │   ├── N-1 (11.111 Mbit/s, φ≈0.4938)
//! │   │   ├── RT-1 (φ=0.81 ⇒ 9 Mbit/s)     ← measured session
//! │   │   └── BE-1 (φ=0.19, always backlogged)
//! │   ├── PS-6 .. PS-10 (1.1389 Mbit/s each)
//! │   └── CS-6 .. CS-10 (1.1389 Mbit/s each)
//! ├── PS-1 .. PS-5 (2.25 Mbit/s each)
//! └── CS-1 .. CS-5 (2.25 Mbit/s each)
//! ```
//!
//! All sessions use 8 KB packets (§5.1). RT-1 is a deterministic on/off
//! source: start 200 ms, 25 ms on / 75 ms off, sending at its guaranteed
//! 9 Mbit/s *during the on phase* (a peak-rate reservation, average
//! 2.25 Mbit/s). This matches Fig. 5's premise that under H-WF²Q+ RT-1's
//! arrival and service curves track within a packet — with a peak above
//! the reservation the session would self-queue and its own backlog, not
//! the scheduler, would dominate the delay under every policy. PS-n are
//! Poisson sessions at their guaranteed average (×1.5 when overloaded);
//! CS-n are packet-train sessions with bursts every ≈193 ms. BE-1 offers
//! enough CBR load to stay permanently backlogged, keeping N-1/N-2/N-R
//! continuously busy as in the paper.

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_obs::{NoopObserver, Observer};
use hpfq_sim::{CbrSource, Network, PacketTrainSource, PeriodicOnOffSource, PoissonSource, Route};

/// Link rate: 45 Mbit/s (a T3, contemporary with the paper).
pub const LINK_BPS: f64 = 45e6;
/// All packets are 8 KB (§5.1).
pub const PKT_BYTES: u32 = 8192;

/// Flow-id scheme for the scenario.
pub const FLOW_RT1: u32 = 1;
pub const FLOW_BE1: u32 = 2;
/// PS-n has flow `FLOW_PS_BASE + n` (n = 1..=10).
pub const FLOW_PS_BASE: u32 = 10;
/// CS-n has flow `FLOW_CS_BASE + n` (n = 1..=10).
pub const FLOW_CS_BASE: u32 = 30;

/// Which of the paper's three traffic mixes to run (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// §5.1.1: every source at its guaranteed average rate; CS-n on.
    GuaranteedRates,
    /// §5.1.2: PS-n Poisson at 1.5× guaranteed; CS-n off.
    OverloadedPoisson,
    /// §5.1.3: PS-n Poisson at 1.5× guaranteed; CS-n on.
    OverloadedPlusConstant,
}

/// The built scenario: a ready-to-run simulation plus the ids needed by
/// the experiments. Generic over the attached [`Observer`] so experiments
/// can trace or invariant-check the full run at will.
pub struct Fig3<O: Observer = NoopObserver> {
    /// The one-link network (sources attached, RT-1 traced).
    pub net: Network<MixedScheduler, O>,
    /// Leaf node of the measured real-time session.
    pub rt1_leaf: NodeId,
    /// Guaranteed rate of RT-1 (9 Mbit/s).
    pub rt1_rate: f64,
    /// Guaranteed rates along RT-1's path `[r_RT1, r_N1, r_N2]`
    /// (for Corollary-2 bounds).
    pub rt1_rates_path: Vec<f64>,
}

/// Builds the Fig. 3 scenario under the given node-scheduler policy.
/// `seed` perturbs the Poisson sources only.
pub fn build(kind: SchedulerKind, scenario: Scenario, seed: u64) -> Fig3 {
    build_with_observer(kind, scenario, seed, NoopObserver)
}

/// [`build`] with an event sink attached to the hierarchy.
pub fn build_with_observer<O: Observer>(
    kind: SchedulerKind,
    scenario: Scenario,
    seed: u64,
    obs: O,
) -> Fig3<O> {
    let mut bld = Hierarchy::<MixedScheduler, O>::builder_with_observer(
        LINK_BPS,
        move |rate| kind.build(rate),
        obs,
    );
    let root = bld.root();

    // --- topology -------------------------------------------------------
    let n2 = bld.add_internal(root, 0.5).unwrap(); // 22.5 Mbit/s
    let n1_phi = (9.0 / 0.81) / 22.5; // ≈ 0.49383 ⇒ 11.111 Mbit/s
    let n1 = bld.add_internal(n2, n1_phi).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap(); // 9 Mbit/s
    let be1 = bld.add_leaf(n1, 0.19).unwrap();

    let ps_outer_phi = 0.05; // of 45 ⇒ 2.25 Mbit/s
    let inner_rest = (1.0 - n1_phi) / 10.0; // ⇒ ≈1.1389 Mbit/s each
    let mut ps_leaves = Vec::new();
    let mut cs_leaves = Vec::new();
    for _ in 0..5 {
        ps_leaves.push(bld.add_leaf(root, ps_outer_phi).unwrap());
    }
    for _ in 0..5 {
        cs_leaves.push(bld.add_leaf(root, ps_outer_phi).unwrap());
    }
    for _ in 0..5 {
        ps_leaves.push(bld.add_leaf(n2, inner_rest).unwrap());
    }
    for _ in 0..5 {
        cs_leaves.push(bld.add_leaf(n2, inner_rest).unwrap());
    }
    let h = bld.build();

    let rt1_rate = 9e6;
    let rt1_rates_path = vec![rt1_rate, h.rate(n1), h.rate(n2)];

    // --- sources ---------------------------------------------------------
    let mut net = Network::new();
    net.add_link(h);
    net.stats.trace_flow(FLOW_RT1);

    // RT-1: deterministic on/off, starts at 200 ms; 25 ms on / 75 ms off
    // at its guaranteed 9 Mbit/s peak (see the module docs).
    net.add_route(
        FLOW_RT1,
        PeriodicOnOffSource::new(FLOW_RT1, PKT_BYTES, 9e6, 0.025, 0.100, 0.200, f64::INFINITY),
        Route::single(rt1, None, 0.0),
    );

    // BE-1: enough CBR to stay backlogged forever (its guarantee is
    // ~2.11 Mbit/s; with RT-1 averaging a quarter of its reservation the
    // spare capacity flowing to BE-1 can approach ~9 Mbit/s).
    net.add_route(
        FLOW_BE1,
        CbrSource::new(FLOW_BE1, PKT_BYTES, 12e6, 0.0, f64::INFINITY),
        Route::single(be1, None, 0.0),
    );

    // PS-n: Poisson sessions.
    let overload = match scenario {
        Scenario::GuaranteedRates => 1.0,
        _ => 1.5,
    };
    for (i, &leaf) in ps_leaves.iter().enumerate() {
        let n = (i + 1) as u32;
        let guaranteed = if i < 5 { 2.25e6 } else { 22.5e6 * inner_rest };
        net.add_route(
            FLOW_PS_BASE + n,
            PoissonSource::new(
                FLOW_PS_BASE + n,
                PKT_BYTES,
                guaranteed * overload,
                0.0,
                f64::INFINITY,
                seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(n as u64),
            ),
            Route::single(leaf, None, 0.0),
        );
    }

    // CS-n: packet trains every ~193 ms, burst sized to average the
    // guaranteed rate, packets arriving back-to-back at line rate.
    if scenario != Scenario::OverloadedPoisson {
        let gap = f64::from(PKT_BYTES) * 8.0 / LINK_BPS;
        for (i, &leaf) in cs_leaves.iter().enumerate() {
            let n = (i + 1) as u32;
            let guaranteed = if i < 5 { 2.25e6 } else { 22.5e6 * inner_rest };
            let burst = ((guaranteed * 0.193) / (f64::from(PKT_BYTES) * 8.0))
                .round()
                // lint:allow(L005): rate·0.193/pkt_bits ≤ ~5.5e3, rounded and clamped ≥ 1 — fits u32
                .max(1.0) as u32;
            // Staggered starts, as produced by the paper's upstream
            // multiplexer: "so that they do not have simultaneous
            // arrivals".
            let start = 0.193 * (i as f64) / 10.0;
            net.add_route(
                FLOW_CS_BASE + n,
                PacketTrainSource::new(
                    FLOW_CS_BASE + n,
                    PKT_BYTES,
                    burst,
                    gap,
                    0.193,
                    start,
                    f64::INFINITY,
                ),
                Route::single(leaf, None, 0.0),
            );
        }
    }

    Fig3 {
        net,
        rt1_leaf: rt1,
        rt1_rate,
        rt1_rates_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_runs_briefly() {
        let mut f = build(SchedulerKind::Wf2qPlus, Scenario::GuaranteedRates, 1);
        f.net.run(1.0);
        // RT-1 started at 200 ms: 8 bursts of 3-4 packets by t=1.
        let rt = f.net.stats.flow(FLOW_RT1);
        assert!(rt.packets > 20, "{rt:?}");
        // BE-1 is backlogged: its queue is non-empty.
        assert!(f.net.stats.flow(FLOW_BE1).packets > 0);
        assert!((f.rt1_rate - 9e6).abs() < 1.0);
        assert_eq!(f.rt1_rates_path.len(), 3);
        assert!((f.rt1_rates_path[1] - 11.111e6).abs() < 1e4);
        f.net.verify_conservation().unwrap();
    }

    #[test]
    fn scenario2_disables_cs() {
        let mut f = build(SchedulerKind::Wfq, Scenario::OverloadedPoisson, 2);
        f.net.run(1.0);
        assert_eq!(f.net.stats.flow(FLOW_CS_BASE + 1).packets, 0);
        assert!(f.net.stats.flow(FLOW_PS_BASE + 1).packets > 0);
        f.net.verify_conservation().unwrap();
    }
}
