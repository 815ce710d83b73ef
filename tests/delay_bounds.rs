//! Deterministic verification of the paper's delay bounds: Theorem 4(3)
//! for standalone WF²Q+ and Corollary 2 for H-WF²Q+, under adversarial
//! (greedy leaky-bucket) sources with saturating cross traffic.

use hpfq::analysis::{corollary2_bound, wf2q_plus_delay_bound};
use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::sim::{CbrSource, GreedyLbSource, Network, Route};

const PKT: u32 = 1000; // 8000 bits
const LMAX: f64 = 8000.0;

/// Theorem 4(3): σ/r_i + L_max/r for a (σ, r_i)-constrained session under
/// standalone WF²Q+, regardless of what the other sessions do.
#[test]
fn theorem4_standalone_bound() {
    let rate = 1e6;
    for phi in [0.1, 0.3, 0.5] {
        let mut h = Hierarchy::builder(rate, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let measured = h.add_leaf(root, phi).unwrap();
        let cross = h.add_leaf(root, 1.0 - phi).unwrap();
        let r_i = phi * rate;
        let sigma_pkts = 4u32;
        let mut net = Network::new();
        net.add_link(h);
        net.stats.trace_flow(0);
        net.add_route(
            0,
            GreedyLbSource::new(0, PKT, sigma_pkts * PKT, r_i, 0.0, 20.0),
            Route::single(measured, None, 0.0),
        );
        net.add_route(
            1,
            CbrSource::new(1, PKT, rate, 0.0, 20.0), // cross floods the link
            Route::single(cross, None, 0.0),
        );
        net.run(30.0);
        let sigma_bits = f64::from(sigma_pkts * PKT) * 8.0;
        let bound = wf2q_plus_delay_bound(sigma_bits, r_i, LMAX, rate);
        let trace = net.stats.trace(0);
        assert!(trace.len() > 100);
        for rec in trace {
            assert!(
                rec.delay() <= bound + 1e-9,
                "phi={phi}: delay {} > bound {bound}",
                rec.delay()
            );
        }
        // The bound is tight-ish: the worst observed delay should come
        // within 40% of it under this adversarial load.
        let worst = trace.iter().map(|r| r.delay()).fold(0.0, f64::max);
        assert!(
            worst > 0.6 * bound,
            "phi={phi}: worst {worst} vs bound {bound}"
        );
    }
}

/// Corollary 2 in a three-level hierarchy, with saturating cross traffic
/// at every level.
#[test]
fn corollary2_three_levels() {
    let rate = 2e6;
    let mut bld = Hierarchy::builder(rate, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = bld.root();
    let c1 = bld.add_internal(root, 0.6).unwrap();
    let x1 = bld.add_leaf(root, 0.4).unwrap();
    let c2 = bld.add_internal(c1, 0.5).unwrap();
    let x2 = bld.add_leaf(c1, 0.5).unwrap();
    let measured = bld.add_leaf(c2, 0.5).unwrap();
    let x3 = bld.add_leaf(c2, 0.5).unwrap();

    let r_i = bld.rate(measured);
    let rates_path = vec![r_i, bld.rate(c2), bld.rate(c1)];

    let mut net = Network::new();
    net.add_link(bld.build());
    net.stats.trace_flow(0);
    let sigma_pkts = 3u32;
    net.add_route(
        0,
        GreedyLbSource::new(0, PKT, sigma_pkts * PKT, r_i, 0.0, 20.0),
        Route::single(measured, None, 0.0),
    );
    for (flow, leaf) in [(1u32, x1), (2, x2), (3, x3)] {
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, rate, 0.0, 20.0),
            Route::single(leaf, None, 0.0),
        );
    }
    net.run(30.0);

    let sigma_bits = f64::from(sigma_pkts * PKT) * 8.0;
    let bound = corollary2_bound(sigma_bits, LMAX, &rates_path);
    let trace = net.stats.trace(0);
    assert!(trace.len() > 100);
    for rec in trace {
        assert!(
            rec.delay() <= bound + 1e-9,
            "delay {} > Corollary-2 bound {bound}",
            rec.delay()
        );
    }
}

/// The same adversarial workload under H-WFQ violates the WF²Q+ bound —
/// the reason Theorem 2 needs small per-node WFIs. (WFQ still meets its
/// own, much looser, bound; this documents the gap.)
#[test]
fn wfq_exceeds_the_wf2q_plus_bound_in_a_hierarchy() {
    let rate = 1e6;
    let build = |kind: SchedulerKind| {
        let mut bld = Hierarchy::builder(rate, move |r| kind.build(r));
        let root = bld.root();
        let class = bld.add_internal(root, 0.5).unwrap();
        let rt = bld.add_leaf(class, 0.5).unwrap();
        let be = bld.add_leaf(class, 0.5).unwrap();
        let mut cross = Vec::new();
        for _ in 0..10 {
            cross.push(bld.add_leaf(root, 0.05).unwrap());
        }
        (bld.build(), rt, be, cross)
    };
    let worst_delay = |kind: SchedulerKind| -> f64 {
        let (h, rt, be, cross) = build(kind);
        let mut net = Network::new();
        net.add_link(h);
        net.stats.trace_flow(0);
        // BE floods its class; cross sessions send one packet each every
        // 100 ms; the measured session sends one packet every 250 ms into
        // an empty queue (the §3.1 victim pattern).
        net.add_route(
            0,
            CbrSource::new(0, PKT, 8000.0 * 4.0, 0.013, 20.0),
            Route::single(rt, None, 0.0),
        );
        net.add_route(
            1,
            CbrSource::new(1, PKT, rate, 0.0, 20.0),
            Route::single(be, None, 0.0),
        );
        for (i, &leaf) in cross.iter().enumerate() {
            let flow = 2 + i as u32;
            net.add_route(
                flow,
                CbrSource::new(flow, PKT, 80_000.0, 0.0, 20.0),
                Route::single(leaf, None, 0.0),
            );
        }
        net.run(30.0);
        net.stats
            .trace(0)
            .iter()
            .map(|r| r.delay())
            .fold(0.0, f64::max)
    };
    let rt_rate = 0.25 * rate;
    let bound = corollary2_bound(LMAX, LMAX, &[rt_rate, 0.5 * rate]);
    let wfq = worst_delay(SchedulerKind::Wfq);
    let plus = worst_delay(SchedulerKind::Wf2qPlus);
    assert!(
        plus <= bound + 1e-9,
        "H-WF2Q+ {plus} must respect its bound {bound}"
    );
    assert!(
        wfq > plus,
        "H-WFQ worst delay {wfq} should exceed H-WF2Q+'s {plus}"
    );
}
