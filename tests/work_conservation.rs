//! Work conservation and packet conservation across every scheduling
//! policy, standalone and hierarchical: a PFQ server never idles while
//! packets are queued, transmits every packet exactly once, and preserves
//! per-flow FIFO order.

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::obs::InvariantObserver;
use hpfq::sim::{CbrSource, Network, Route, TraceSource};
use std::collections::HashMap;

fn two_level(kind: SchedulerKind) -> (Hierarchy<MixedScheduler>, Vec<NodeId>) {
    let mut bld = Hierarchy::builder(1e6, move |r| kind.build(r));
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).unwrap();
    let b = bld.add_internal(root, 0.4).unwrap();
    let leaves = vec![
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(b, 0.25).unwrap(),
        bld.add_leaf(b, 0.75).unwrap(),
    ];
    (bld.build(), leaves)
}

#[test]
fn saturated_link_transmits_at_capacity_under_every_policy() {
    for kind in SchedulerKind::ALL {
        let (h, leaves) = two_level(kind);
        let mut net = Network::new();
        net.add_link(h);
        for (i, &leaf) in leaves.iter().enumerate() {
            let flow = i as u32;
            net.add_route(
                flow,
                CbrSource::new(flow, 500, 0.5e6, 0.0, 100.0), // 4x oversubscribed
                Route::single(leaf, None, 0.0),
            );
        }
        net.run(10.0);
        // 10 s at 1 Mbit/s = 1.25e6 bytes; allow sub-packet slack at both
        // ends.
        assert!(
            net.stats.total_bytes >= 1_248_000,
            "{}: only {} bytes in 10 s",
            kind.name(),
            net.stats.total_bytes
        );
    }
}

#[test]
fn every_packet_transmitted_exactly_once_and_in_flow_order() {
    for kind in SchedulerKind::ALL {
        let (h, leaves) = two_level(kind);
        let mut net = Network::new();
        net.add_link(h);
        let mut expected = 0usize;
        for (i, &leaf) in leaves.iter().enumerate() {
            let flow = i as u32;
            net.stats.trace_flow(flow);
            // A finite trace: bursts + trailing trickle.
            let mut entries: Vec<(f64, u32)> = Vec::new();
            for k in 0..30 {
                entries.push((0.01 * f64::from(i as u32), 400 + 10 * (k % 5)));
            }
            for k in 0..20 {
                entries.push((1.0 + 0.05 * k as f64, 600));
            }
            expected += entries.len();
            net.add_route(
                flow,
                TraceSource::new(flow, entries),
                Route::single(leaf, None, 0.0),
            );
        }
        net.run(1000.0);
        let mut seen: HashMap<u64, u32> = HashMap::new();
        let mut total = 0usize;
        for flow in 0..leaves.len() as u32 {
            let trace = net.stats.trace(flow);
            total += trace.len();
            let mut last_id = None;
            for rec in trace {
                assert_eq!(rec.flow, flow);
                *seen.entry(rec.id).or_insert(0) += 1;
                // FIFO within the flow: ids (sequence numbers) increase.
                if let Some(prev) = last_id {
                    assert!(rec.id > prev, "{}: flow {flow} reordered", kind.name());
                }
                last_id = Some(rec.id);
                // Causality: service after arrival, non-negative delay.
                assert!(rec.start >= rec.arrival - 1e-12);
                assert!(rec.end > rec.start);
            }
        }
        assert_eq!(total, expected, "{}: packet count mismatch", kind.name());
        assert!(
            seen.values().all(|&c| c == 1),
            "{}: duplicate ids",
            kind.name()
        );
    }
}

/// The link serializes transmissions: service intervals never overlap.
/// The same run is watched by an [`InvariantObserver`], whose online
/// work-conservation check complements the throughput test above.
#[test]
fn transmissions_do_not_overlap() {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld =
        Hierarchy::builder_with_observer(1e6, move |r| kind.build(r), InvariantObserver::new());
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).unwrap();
    let b = bld.add_internal(root, 0.4).unwrap();
    let leaves = [
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(b, 0.25).unwrap(),
        bld.add_leaf(b, 0.75).unwrap(),
    ];
    let mut net = Network::new();
    net.add_link(bld.build());
    for (i, &leaf) in leaves.iter().enumerate() {
        let flow = i as u32;
        net.stats.trace_flow(flow);
        net.add_route(
            flow,
            CbrSource::new(flow, 700, 0.4e6, 0.0, 5.0),
            Route::single(leaf, None, 0.0),
        );
    }
    net.run(20.0);
    let mut intervals: Vec<(f64, f64)> = (0..leaves.len() as u32)
        .flat_map(|f| net.stats.trace(f).iter().map(|r| (r.start, r.end)))
        .collect();
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for w in intervals.windows(2) {
        assert!(w[1].0 >= w[0].1 - 1e-9, "overlapping transmissions: {w:?}");
    }
    let inv = net.observer_of(0);
    assert!(inv.events_checked > 0);
    assert!(inv.is_clean(), "{}", inv.summary());
}
