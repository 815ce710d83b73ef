//! The Fig. 8 link-sharing hierarchy (§5.2), reconstructed.
//!
//! ```text
//! root (10 Mbit/s)
//! ├── TCP-1 (0.1)  TCP-2 (0.1)  TCP-3 (0.1)  ON-1 (0.2)
//! └── N-A (0.5)
//!     ├── TCP-4 (0.1)  TCP-5 (0.1)  TCP-6 (0.1)  ON-2 (0.2)
//!     └── N-B (0.5)
//!         ├── TCP-7 (0.1)  TCP-8 (0.1)  TCP-9 (0.1)  ON-3 (0.2)
//!         └── N-C (0.5)
//!             ├── TCP-10 (0.4)  TCP-11 (0.3)  ON-4 (0.3)
//! ```
//!
//! Eleven greedy TCP sessions, four levels, one deterministic on/off
//! source per level. The on/off schedule follows the §5.2 narrative
//! exactly:
//!
//! * before 5000 ms: ON-1, ON-2, ON-3 active; ON-4 idle;
//! * 5000 ms: ON-4 becomes active, ON-2 and ON-3 go idle;
//! * ON-1 idles during (5250, 6000), (6750, 7500), (8250, 9000) ms;
//! * 8000 ms: ON-4 goes idle, ON-3 becomes active.
//!
//! The experiment measures TCP-{1,5,8,10,11} bandwidth (50 ms windows,
//! exponentially averaged) and compares with the ideal H-GPS allocation
//! from [`hpfq_fluid::ideal_shares`] per schedule interval.

use hpfq_core::{vtime, Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq_fluid::{FluidNodeId, FluidTree};
use hpfq_sim::{Network, Route, ScheduledOnOffSource};
use hpfq_tcp::{TcpConfig, TcpSource};

/// Link rate: 10 Mbit/s.
pub const LINK_BPS: f64 = 10e6;
/// TCP segment size.
pub const MSS_BYTES: u32 = 1024;
/// On/off source packet size.
pub const ONOFF_BYTES: u32 = 1024;

/// TCP-n has flow id `n` (1..=11); ON-n has flow id `20 + n`.
pub const FLOW_ON_BASE: u32 = 20;

/// Sending rate of each on/off source while active (bits/s), indexed by
/// level 1..=4. Each rate sits just below the source's guaranteed
/// bandwidth (2 / 1 / 0.5 / 0.375 Mbit/s) so the source's queue stays
/// empty while it is active: its on/off transitions then reshape the
/// TCP allocations instantaneously, as in Fig. 9. (A rate above the
/// guarantee would build a persistent backlog that keeps consuming
/// bandwidth long after the source goes idle, masking the schedule.)
pub const ON_RATES: [f64; 4] = [1.8e6, 0.9e6, 0.45e6, 0.3e6];

/// Activity schedules (seconds) per on/off source, from the §5.2
/// narrative.
pub fn on_schedules() -> [Vec<(f64, f64)>; 4] {
    [
        vec![(0.0, 5.25), (6.0, 6.75), (7.5, 8.25), (9.0, 10.0)],
        vec![(0.0, 5.0)],
        vec![(0.0, 5.0), (8.0, 10.0)],
        vec![(5.0, 8.0)],
    ]
}

/// The built link-sharing scenario.
pub struct Fig8 {
    /// The one-link network, TCP flows 1,5,8,10,11 traced.
    pub net: Network<MixedScheduler>,
    /// Leaf node per TCP session (index 0 ⇒ TCP-1).
    pub tcp_leaves: Vec<NodeId>,
    /// A [`FluidTree`] mirroring the hierarchy, for ideal-share queries.
    pub fluid: FluidTree,
    /// Fluid node per TCP session (same order as `tcp_leaves`).
    pub tcp_fluid: Vec<FluidNodeId>,
    /// Fluid node per on/off source (index 0 ⇒ ON-1).
    pub on_fluid: Vec<FluidNodeId>,
}

/// Builds the Fig. 8 hierarchy and traffic under the given policy.
pub fn build(kind: SchedulerKind) -> Fig8 {
    let mut bld = Hierarchy::<MixedScheduler>::builder(LINK_BPS, move |rate| kind.build(rate));
    let mut fluid = FluidTree::new();

    let mut tcp_leaves = Vec::new();
    let mut tcp_fluid = Vec::new();
    let mut on_leaves = Vec::new();
    let mut on_fluid = Vec::new();

    // Levels 1..3: three TCPs + one on/off + a nested class of share 0.5.
    let mut parent = bld.root();
    let mut fparent = fluid.root();
    for _level in 0..3 {
        for _ in 0..3 {
            tcp_leaves.push(bld.add_leaf(parent, 0.1).unwrap());
            tcp_fluid.push(fluid.add_leaf(fparent, 0.1).unwrap());
        }
        on_leaves.push(bld.add_leaf(parent, 0.2).unwrap());
        on_fluid.push(fluid.add_leaf(fparent, 0.2).unwrap());
        parent = bld.add_internal(parent, 0.5).unwrap();
        fparent = fluid.add_internal(fparent, 0.5).unwrap();
    }
    // Level 4 (N-C): TCP-10, TCP-11, ON-4.
    tcp_leaves.push(bld.add_leaf(parent, 0.4).unwrap());
    tcp_fluid.push(fluid.add_leaf(fparent, 0.4).unwrap());
    tcp_leaves.push(bld.add_leaf(parent, 0.3).unwrap());
    tcp_fluid.push(fluid.add_leaf(fparent, 0.3).unwrap());
    on_leaves.push(bld.add_leaf(parent, 0.3).unwrap());
    on_fluid.push(fluid.add_leaf(fparent, 0.3).unwrap());

    let mut net = Network::new();
    net.add_link(bld.build());
    for flow in [1u32, 5, 8, 10, 11] {
        net.stats.trace_flow(flow);
    }

    // TCP sources: greedy Reno, ~4 ms base RTT, 8-segment buffers. The
    // small bandwidth-delay product keeps Reno's congestion-avoidance
    // ramp (one segment per RTT) fast relative to the 250-750 ms
    // intervals of the on/off schedule, so flows re-converge to each new
    // ideal allocation within a fraction of an interval — the premise of
    // Fig. 9(b). Deep buffers would inflate RTTs to hundreds of
    // milliseconds and freeze the flows at their first equilibrium.
    for (i, &leaf) in tcp_leaves.iter().enumerate() {
        let flow = (i + 1) as u32;
        let tcp = TcpSource::new(
            flow,
            TcpConfig {
                mss_bytes: MSS_BYTES,
                ack_delay: 0.002,
                start_time: 0.0,
                stop_time: f64::INFINITY,
                init_ssthresh: 32.0,
                rcv_window: 128.0,
            },
        );
        net.add_route(flow, tcp, Route::single(leaf, Some(8 * 1024), 0.002));
    }

    // On/off sources per schedule.
    let schedules = on_schedules();
    for (i, &leaf) in on_leaves.iter().enumerate() {
        let flow = FLOW_ON_BASE + (i + 1) as u32;
        net.add_route(
            flow,
            ScheduledOnOffSource::new(flow, ONOFF_BYTES, ON_RATES[i], schedules[i].clone()),
            Route::single(leaf, Some(16 * 1024), 0.0),
        );
    }

    Fig8 {
        net,
        tcp_leaves,
        fluid,
        tcp_fluid,
        on_fluid,
    }
}

/// The ideal H-GPS rate of every node over each constant interval of the
/// on/off schedule within `[t0, t1]`: returns `(interval_start,
/// interval_end, per-node rates)`. TCP demand is taken as infinite
/// (greedy); an on/off source demands its rate while active.
pub fn ideal_timeline(f: &Fig8, t0: f64, t1: f64) -> Vec<(f64, f64, Vec<f64>)> {
    let schedules = on_schedules();
    // Breakpoints of the schedule.
    let mut cuts = vec![t0, t1];
    for sched in &schedules {
        for &(s, e) in sched {
            for t in [s, e] {
                if t > t0 && t < t1 {
                    cuts.push(t);
                }
            }
        }
    }
    cuts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    cuts.dedup_by(|a, b| vtime::approx_eq(*a, *b));

    let mut out = Vec::new();
    for w in cuts.windows(2) {
        let (s, e) = (w[0], w[1]);
        let mid = (s + e) / 2.0;
        let mut demands = vec![0.0; f.fluid.node_count()];
        for &leaf in &f.tcp_fluid {
            demands[leaf.0] = f64::INFINITY;
        }
        for (i, &leaf) in f.on_fluid.iter().enumerate() {
            let active = schedules[i].iter().any(|&(a, b)| mid >= a && mid < b);
            demands[leaf.0] = if active { ON_RATES[i] } else { 0.0 };
        }
        let alloc = hpfq_fluid::ideal_shares(&f.fluid, LINK_BPS, &demands);
        out.push((s, e, alloc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_eleven_tcps() {
        let f = build(SchedulerKind::Wf2qPlus);
        assert_eq!(f.tcp_leaves.len(), 11);
        assert_eq!(f.on_fluid.len(), 4);
        // Hierarchy and fluid tree agree structurally.
        assert_eq!(f.net.link_server(0).node_count(), f.fluid.node_count());
    }

    #[test]
    fn ideal_timeline_covers_and_sums() {
        let f = build(SchedulerKind::Wf2qPlus);
        let tl = ideal_timeline(&f, 4.5, 8.5);
        assert!(tl.len() >= 4, "schedule has several cuts in [4.5, 8.5]");
        let mut prev_end = 4.5;
        for (s, e, alloc) in &tl {
            assert!((s - prev_end).abs() < 1e-9);
            prev_end = *e;
            // Root allocation equals the link rate (TCPs are greedy).
            assert!((alloc[0] - LINK_BPS).abs() < 1.0);
        }
        assert!((prev_end - 8.5).abs() < 1e-9);
    }

    #[test]
    fn short_run_moves_traffic() {
        let mut f = build(SchedulerKind::Wf2qPlus);
        f.net.run(0.5);
        let total: u64 = (1..=11).map(|fl| f.net.stats.flow(fl).bytes).sum();
        assert!(total > 50_000, "TCPs should ramp up: {total} bytes");
        f.net.verify_conservation().unwrap();
    }
}
