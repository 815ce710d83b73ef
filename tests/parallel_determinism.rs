//! Golden byte-identity oracle for deterministic parallel execution.
//!
//! `Network::run_parallel(n)` promises *bit-identical* results to the
//! sequential `run()` — same merged JSONL trace, same per-flow statistics,
//! same per-link conservation ledgers — for any shard count. These tests
//! pin that promise on the two reference scenarios:
//!
//! * the reduced Fig. 3 single-link workload (outage commands + finite
//!   buffer in the mix), where every parallel request must *fall back*
//!   to the sequential path and still reproduce it byte-for-byte;
//! * a 3-hop tandem with cross traffic, a mid-run outage on the middle
//!   link and flow churn (`RemoveFlow` mid-path), where `n ∈ {2, 4}`
//!   genuinely shards across `std::thread::scope` workers.
//!
//! Traces are collected through per-link `JsonlObserver<Vec<u8>>` sinks
//! and merged with [`merge_traces`], whose `(t, link)` stable sort makes
//! the merged bytes a pure function of the per-link streams — the same
//! canonical form regardless of how execution interleaved the links.

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::JsonlObserver;
use hpfq::sim::{
    CbrSource, FallbackReason, FlowStats, Hop, LinkLedger, Network, PacketTrainSource,
    PeriodicOnOffSource, PoissonSource, Route, ServiceRecord, SimCommand,
};

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

type Obs = JsonlObserver<Vec<u8>>;

fn sink() -> Obs {
    JsonlObserver::new(Vec::new())
}

/// Everything a run leaves behind that the oracle compares.
#[derive(Debug, PartialEq)]
struct Snapshot {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    merged: String,
}

/// Drains a finished network into its comparable snapshot.
fn snapshot(net: Network<MixedScheduler, Obs>, flows: &[u32], traced: &[u32]) -> Snapshot {
    net.verify_conservation().unwrap();
    let flows = flows.iter().map(|&f| (f, net.stats.flow(f))).collect();
    let records = traced
        .iter()
        .map(|&f| (f, net.stats.trace(f).to_vec()))
        .collect();
    let total_bytes = net.stats.total_bytes;
    let total_packets = net.stats.total_packets;
    let last_departure = net.stats.last_departure;
    let ledgers = (0..net.link_count()).map(|l| net.link_ledger(l)).collect();
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
    Snapshot {
        flows,
        records,
        total_bytes,
        total_packets,
        last_departure,
        ledgers,
        merged: merge_traces(&bufs),
    }
}

fn assert_snapshots_match(seq: &Snapshot, par: &Snapshot, label: &str) {
    assert_eq!(seq.flows, par.flows, "{label}: per-flow stats diverged");
    assert_eq!(
        seq.records, par.records,
        "{label}: service records diverged"
    );
    assert_eq!(seq.total_bytes, par.total_bytes, "{label}: total bytes");
    assert_eq!(seq.total_packets, par.total_packets, "{label}: packets");
    assert_eq!(
        seq.last_departure, par.last_departure,
        "{label}: last departure"
    );
    assert_eq!(seq.ledgers, par.ledgers, "{label}: link ledgers diverged");
    if seq.merged != par.merged {
        // Find the first diverging line so the failure is actionable
        // without diffing megabytes by eye.
        for (i, (a, b)) in seq.merged.lines().zip(par.merged.lines()).enumerate() {
            assert_eq!(a, b, "{label}: traces diverge at merged line {i}");
        }
        panic!(
            "{label}: trace lengths diverge ({} vs {} lines)",
            seq.merged.lines().count(),
            par.merged.lines().count()
        );
    }
}

/// The reduced Fig. 3 workload on one link: N-R → {N-2 → {N-1 → {RT-1,
/// BE-1}, PS-6, CS-6}, PS-1, CS-1}, five sources, a 30 ms outage, one
/// finite buffer. Mirrors `tests/network.rs::fig3ish`.
fn fig3_net() -> Network<MixedScheduler, Obs> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        LINK,
        move |r| kind.build(r),
        sink(),
    );
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();

    let mut net: Network<MixedScheduler, Obs> = Network::new();
    net.add_link(bld.build());
    net.stats.trace_flow(1);
    net.add_route(
        1,
        PeriodicOnOffSource::new(1, PKT, 9e6, 0.025, 0.100, 0.200, f64::INFINITY),
        Route::single(rt1, None, 0.0),
    );
    net.add_route(
        2,
        CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY),
        Route::single(be1, Some(3 * u64::from(PKT)), 0.0),
    );
    net.add_route(
        11,
        PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7),
        Route::single(ps1, None, 0.001),
    );
    net.add_route(
        31,
        PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        ),
        Route::single(cs1, None, 0.0),
    );
    net.add_route(
        16,
        PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9),
        Route::single(ps6, None, 0.0),
    );
    net.schedule_command(0.9, SimCommand::SetLinkRateOn { link: 0, bps: 0.0 });
    net.schedule_command(0.93, SimCommand::SetLinkRateOn { link: 0, bps: LINK });
    net
}

/// A 3-hop tandem (flow 0) with saturating single-hop cross traffic on
/// every link, a tight mid-path buffer, a mid-run outage on the middle
/// link, and churn: one cross flow leaves early, the tandem flow itself
/// is removed mid-path late in the run (its downstream detachments ride
/// cross-shard `Detach` events under parallel execution).
fn tandem_net() -> Network<MixedScheduler, Obs> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    let mut hops = Vec::new();
    for li in 0..3usize {
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            10e6,
            move |r| kind.build(r),
            sink(),
        );
        let root = bld.root();
        let phi = if li == 1 { 0.2 } else { 0.5 };
        let tandem_leaf = bld.add_leaf(root, phi).unwrap();
        let cross_leaf = bld.add_leaf(root, 1.0 - phi).unwrap();
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: if li == 1 {
                Some(2 * u64::from(PKT))
            } else {
                None
            },
            prop_delay: 0.002,
        });
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    net.stats.trace_flow(0);
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 5.0), Route::new(hops));
    // 50 ms outage on the middle link mid-run.
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: 10e6 });
    // Churn: a cross flow leaves, then the tandem flow is torn down
    // mid-path while packets are still in flight between hops.
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(0));
    net
}

const FIG3_FLOWS: &[u32] = &[1, 2, 11, 31, 16];
const TANDEM_FLOWS: &[u32] = &[0, 100, 101, 102];

#[test]
fn fig3_single_link_parallel_falls_back_byte_identically() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = snapshot(seq, FIG3_FLOWS, &[1]);
    assert!(
        golden.merged.lines().count() > 1000,
        "trace too small to be meaningful"
    );

    for n in [1usize, 2, 4] {
        let mut net = fig3_net();
        let report = net.run_parallel(2.0, n);
        // One link can't shard: every request falls back, and the
        // fallback path must still be the byte-identical sequential run.
        assert_eq!(report.fallback, Some(FallbackReason::SingleShard), "n={n}");
        assert_eq!(report.shards, 1, "n={n}");
        let snap = snapshot(net, FIG3_FLOWS, &[1]);
        assert_snapshots_match(&golden, &snap, &format!("fig3 n={n}"));
    }
}

#[test]
fn tandem_parallel_matches_sequential_byte_for_byte() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = snapshot(seq, TANDEM_FLOWS, &[0]);
    assert!(
        golden.merged.lines().count() > 1000,
        "trace too small to be meaningful"
    );
    // The scenario is non-trivial: churn purged bytes mid-path.
    let tandem = golden.flows.iter().find(|&&(f, _)| f == 0).unwrap();
    assert!(tandem.1.purged_bytes > 0, "{:?}", tandem.1);

    for n in [1usize, 2, 4] {
        let mut net = tandem_net();
        let report = net.run_parallel(8.0, n);
        if n == 1 {
            assert_eq!(report.fallback, Some(FallbackReason::SingleShard));
        } else {
            assert_eq!(report.fallback, None, "n={n} must genuinely shard");
            // 4 requested shards clamp to the 3 links available.
            assert_eq!(report.shards, n.min(3), "n={n}");
            assert!(report.epochs > 0, "n={n} ran zero epochs");
            // Lookahead is the tandem route's inter-shard hop spacing.
            assert_eq!(report.lookahead, 0.002, "n={n}");
        }
        let snap = snapshot(net, TANDEM_FLOWS, &[0]);
        assert_snapshots_match(&golden, &snap, &format!("tandem n={n}"));
    }
}
