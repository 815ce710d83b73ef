//! Batched dispatch (`Network::set_dispatch_batch`): the k=1 golden pin,
//! conservation and work totals at k>1, the O(k·Lmax) unfairness bound
//! measured by `hpfq-analysis`, and snapshot round-trips with a planned
//! train in flight.
//!
//! The contract under test: `k = 1` is **byte-identical** to the
//! historical per-packet event loop (same merged JSONL trace, same
//! stats), while `k > 1` trades exactness for amortized cost — a train of
//! up to `k` packets is planned against the hierarchy in one pass, so a
//! newly backlogged session can be served up to `k − 1` packets late, an
//! `O(k · Lmax)` service deviation on top of the scheduler's own
//! fairness bound.

use hpfq::analysis::{empirical_bwfi, service_curve_from_records, wf2q_plus_bwfi};
use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::obs::{JsonlObserver, Observer, SharedBuf};
use hpfq::sim::{CbrSource, Network, PeriodicOnOffSource, Route, SimCommand, TraceSource};

const LINK: f64 = 10e6;
const PKT: u32 = 1500; // 12000 bits

/// A small two-level WF²Q+ hierarchy: root → {A, B → {B1, B2}} with
/// leaves `[a, b1, b2]`.
fn tree<O: Observer>(obs: O) -> (Hierarchy<MixedScheduler, O>, Vec<NodeId>) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld =
        Hierarchy::<MixedScheduler, O>::builder_with_observer(LINK, move |r| kind.build(r), obs);
    let root = bld.root();
    let a = bld.add_leaf(root, 0.5).unwrap();
    let b = bld.add_internal(root, 0.5).unwrap();
    let b1 = bld.add_leaf(b, 0.75).unwrap();
    let b2 = bld.add_leaf(b, 0.25).unwrap();
    (bld.build(), vec![a, b1, b2])
}

/// Saturating workload with an on-off source and a mid-run outage, so the
/// rate-change/epoch machinery runs under both dispatch modes.
fn build_net(batch: usize, buf: &SharedBuf) -> Network<MixedScheduler, JsonlObserver<SharedBuf>> {
    let (h, leaves) = tree(JsonlObserver::new(buf.clone()));
    let mut net: Network<MixedScheduler, _> = Network::new();
    net.set_dispatch_batch(batch);
    net.add_link(h);
    net.stats.trace_flow(0);
    net.add_route(
        0,
        CbrSource::new(0, PKT, 6e6, 0.0, 1.5),
        Route::single(leaves[0], None, 0.0),
    );
    net.add_route(
        1,
        PeriodicOnOffSource::new(1, PKT, 5e6, 0.01, 0.08, 0.15, 1.5),
        Route::single(leaves[1], None, 0.0),
    );
    net.add_route(
        2,
        CbrSource::new(2, PKT, 2e6, 0.005, 1.5),
        Route::single(leaves[2], Some(8 * u64::from(PKT)), 0.0),
    );
    net.schedule_command(0.6, SimCommand::SetLinkRateOn { link: 0, bps: 0.0 });
    net.schedule_command(0.63, SimCommand::SetLinkRateOn { link: 0, bps: LINK });
    net
}

#[test]
fn dispatch_batch_1_is_byte_identical_to_the_classic_loop() {
    // Golden: the default network (never touched by set_dispatch_batch).
    let buf_a = SharedBuf::new();
    let mut golden = {
        let (h, leaves) = tree(JsonlObserver::new(buf_a.clone()));
        let mut net: Network<MixedScheduler, _> = Network::new();
        net.add_link(h);
        net.stats.trace_flow(0);
        net.add_route(
            0,
            CbrSource::new(0, PKT, 6e6, 0.0, 1.5),
            Route::single(leaves[0], None, 0.0),
        );
        net.add_route(
            1,
            PeriodicOnOffSource::new(1, PKT, 5e6, 0.01, 0.08, 0.15, 1.5),
            Route::single(leaves[1], None, 0.0),
        );
        net.add_route(
            2,
            CbrSource::new(2, PKT, 2e6, 0.005, 1.5),
            Route::single(leaves[2], Some(8 * u64::from(PKT)), 0.0),
        );
        net.schedule_command(0.6, SimCommand::SetLinkRateOn { link: 0, bps: 0.0 });
        net.schedule_command(0.63, SimCommand::SetLinkRateOn { link: 0, bps: LINK });
        net
    };
    golden.run(3.0);
    golden.verify_conservation().unwrap();

    let buf_b = SharedBuf::new();
    let mut batched = build_net(1, &buf_b);
    batched.run(3.0);
    batched.verify_conservation().unwrap();

    assert_eq!(golden.stats.total_bytes, batched.stats.total_bytes);
    assert_eq!(golden.stats.total_packets, batched.stats.total_packets);
    assert_eq!(golden.stats.last_departure, batched.stats.last_departure);
    assert_eq!(golden.stats.trace(0), batched.stats.trace(0));
    for flow in [0u32, 1, 2] {
        assert_eq!(golden.stats.flow(flow), batched.stats.flow(flow));
    }
    let (a, b) = (buf_a.contents(), buf_b.contents());
    assert!(a.lines().count() > 500, "trace too small to be meaningful");
    assert_eq!(a, b, "k=1 batched run diverged from the classic loop");
}

#[test]
fn batched_trains_conserve_bytes_and_serve_the_same_work() {
    let buf_ref = SharedBuf::new();
    let mut reference = build_net(1, &buf_ref);
    reference.run(3.0);
    reference.verify_conservation().unwrap();

    for k in [2usize, 4, 8] {
        let buf = SharedBuf::new();
        let mut net = build_net(k, &buf);
        net.run(3.0);
        net.verify_conservation()
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        // All sources end by t=1.5 and the run drains by t=3, so both
        // modes serve exactly the admitted work; only *when* each packet
        // went out may differ (within the train bound).
        assert_eq!(
            reference.stats.total_bytes, net.stats.total_bytes,
            "k={k} served different total work"
        );
        assert_eq!(reference.stats.total_packets, net.stats.total_packets);
        for flow in [0u32, 1, 2] {
            assert_eq!(
                reference.stats.flow(flow).bytes,
                net.stats.flow(flow).bytes,
                "k={k} flow {flow}"
            );
        }
    }
}

#[test]
fn batched_unfairness_stays_within_k_lmax_of_the_exact_schedule() {
    const BITS: f64 = 12_000.0; // PKT * 8
    let shares = [0.5, 0.3, 0.2];
    // measured[k-index][flow] B-WFI in bits.
    let mut measured: Vec<Vec<f64>> = Vec::new();
    let ks = [1usize, 2, 4, 8];
    for &k in &ks {
        let kind = SchedulerKind::Wf2qPlus;
        let mut bld = Hierarchy::<MixedScheduler>::builder(LINK, move |r| kind.build(r));
        let root = bld.root();
        let leaves: Vec<_> = shares
            .iter()
            .map(|&phi| bld.add_leaf(root, phi).unwrap())
            .collect();
        let mut net: Network<MixedScheduler> = Network::new();
        net.set_dispatch_batch(k);
        net.add_link(bld.build());
        let mut arrivals_per_flow: Vec<Vec<(f64, f64)>> = Vec::new();
        for (i, leaf) in leaves.iter().enumerate() {
            let flow = i as u32;
            net.stats.trace_flow(flow);
            // Everyone backlogged from t=0: 300 densely spaced packets.
            let entries: Vec<(f64, u32)> = (0..300).map(|n| (f64::from(n) * 1e-4, PKT)).collect();
            arrivals_per_flow.push(
                entries
                    .iter()
                    .map(|&(t, l)| (t, f64::from(l) * 8.0))
                    .collect(),
            );
            net.add_route(
                flow,
                TraceSource::new(flow, entries),
                Route::single(*leaf, None, 0.0),
            );
        }
        net.run(100.0);
        net.verify_conservation().unwrap();

        let all: Vec<_> = (0..shares.len() as u32)
            .flat_map(|f| net.stats.trace(f).iter().copied())
            .collect();
        let w_server = service_curve_from_records(all.iter());
        let row: Vec<f64> = shares
            .iter()
            .enumerate()
            .map(|(i, &share)| {
                let w_i = service_curve_from_records(net.stats.trace(i as u32).iter());
                empirical_bwfi(&arrivals_per_flow[i], &w_i, &w_server, share)
            })
            .collect();
        measured.push(row);
    }
    for (i, &share) in shares.iter().enumerate() {
        // The exact (k=1) schedule stays near Theorem 4's closed form —
        // within one extra max packet of slop for this tie-heavy,
        // fully-backlogged workload.
        let theory = wf2q_plus_bwfi(BITS, BITS, share * LINK, LINK);
        assert!(
            measured[0][i] <= theory + BITS + 1.0,
            "flow {i}: exact-schedule B-WFI {} bits way above theory {theory}",
            measured[0][i]
        );
        // The train bound: planning k packets without a newly backlogged
        // session can defer it by at most the k−1 extra train slots, so
        // batching adds at most (k−1)·Lmax of unfairness on top of the
        // exact schedule.
        for (ki, &k) in ks.iter().enumerate().skip(1) {
            let bound = measured[0][i] + (k as f64 - 1.0) * BITS;
            assert!(
                measured[ki][i] <= bound + 1.0,
                "k={k} flow {i}: measured B-WFI {} bits > k=1 baseline {} + (k-1)*Lmax",
                measured[ki][i],
                measured[0][i]
            );
        }
    }
}

#[test]
fn snapshot_round_trips_with_a_train_in_flight() {
    let buf = SharedBuf::new();
    let mut net = build_net(4, &buf);
    // Stop mid-busy-period so a planned train is likely pending.
    net.run(0.4);
    let snap = net.snapshot().unwrap();

    let buf_b = SharedBuf::new();
    let mut resumed = build_net(4, &buf_b);
    resumed.restore(&snap).unwrap();

    net.run(3.0);
    resumed.run(3.0);
    net.verify_conservation().unwrap();
    resumed.verify_conservation().unwrap();
    assert_eq!(net.stats.total_bytes, resumed.stats.total_bytes);
    assert_eq!(net.stats.total_packets, resumed.stats.total_packets);
    assert_eq!(net.stats.last_departure, resumed.stats.last_departure);
    for flow in [0u32, 1, 2] {
        assert_eq!(net.stats.flow(flow), resumed.stats.flow(flow));
    }
}
