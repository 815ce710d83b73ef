//! Mid-run checkpoint/restore byte-identity oracle.
//!
//! `Network::snapshot()` / `Network::restore()` promise
//!
//! ```text
//! run(0..T)  ≡  run(0..t) → snapshot → restore → run(t..T)
//! ```
//!
//! on per-flow statistics, service records, link ledgers, and the JSONL
//! trace. These tests pin that promise on the two reference scenarios the
//! parallel-determinism oracle uses — the reduced Fig. 3 single-link
//! workload (outage + finite buffer) and a 3-link tandem with cross
//! traffic, a mid-run outage, and flow churn — in three restore modes:
//!
//! * **no-op**: snapshotting mid-run and simply continuing must not
//!   perturb the run (the queue is drained and rebuilt during capture);
//! * **rollback**: restoring an earlier snapshot into the *same* network
//!   after it ran further must rewind everything — including the trace,
//!   whose post-checkpoint lines are truncated — and replay identically;
//! * **resume**: restoring into a freshly built network must continue
//!   identically, with the trace picking up exactly at the checkpoint's
//!   byte offset (the prefix lives in the snapshot's origin).
//!
//! Serialized snapshots are byte-deterministic: equal runs checkpointed at
//! the same instant produce equal bytes, and a text round-trip through
//! `snap::parse` preserves them.

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::snap::{self, Value};
use hpfq::obs::JsonlObserver;
use hpfq::sim::{
    CbrSource, FlowStats, Hop, LinkLedger, Network, PacketTrainSource, PeriodicOnOffSource,
    PoissonSource, Route, ServiceRecord, SimCommand,
};

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

type Obs = JsonlObserver<Vec<u8>>;

fn sink() -> Obs {
    JsonlObserver::new(Vec::new())
}

/// Everything a finished run leaves behind that the oracle compares.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    /// Per-link raw trace buffers (pre-merge, for tail comparisons).
    bufs: Vec<String>,
    merged: String,
}

fn artifacts(net: Network<MixedScheduler, Obs>, flows: &[u32], traced: &[u32]) -> RunArtifacts {
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
    let merged = merge_traces(&bufs);
    RunArtifacts {
        flows,
        records,
        total_bytes,
        total_packets,
        last_departure,
        ledgers,
        bufs,
        merged,
    }
}

fn assert_artifacts_match(golden: &RunArtifacts, got: &RunArtifacts, label: &str) {
    assert_eq!(golden.flows, got.flows, "{label}: per-flow stats diverged");
    assert_eq!(golden.records, got.records, "{label}: service records");
    assert_eq!(golden.total_bytes, got.total_bytes, "{label}: total bytes");
    assert_eq!(golden.total_packets, got.total_packets, "{label}: packets");
    assert_eq!(
        golden.last_departure, got.last_departure,
        "{label}: last departure"
    );
    assert_eq!(golden.ledgers, got.ledgers, "{label}: link ledgers");
    if golden.merged != got.merged {
        for (i, (a, b)) in golden.merged.lines().zip(got.merged.lines()).enumerate() {
            assert_eq!(a, b, "{label}: traces diverge at merged line {i}");
        }
        panic!(
            "{label}: trace lengths diverge ({} vs {} lines)",
            golden.merged.lines().count(),
            got.merged.lines().count()
        );
    }
}

/// The trace byte offset of link `i` recorded inside a snapshot (the
/// observer mark `[pos, write_errors]`).
fn trace_offset(snapshot: &Value, link: usize) -> usize {
    snapshot.get("links").unwrap().items().unwrap()[link]
        .get("obs")
        .unwrap()
        .items()
        .unwrap()[0]
        .as_usize()
        .unwrap()
}

/// Stats/records/ledgers must match in full; each per-link trace must be
/// exactly the golden trace's tail past the checkpoint's byte offset (a
/// resumed network never saw the prefix).
fn assert_resumed_match(golden: &RunArtifacts, got: &RunArtifacts, snapshot: &Value, label: &str) {
    assert_eq!(golden.flows, got.flows, "{label}: per-flow stats diverged");
    assert_eq!(golden.records, got.records, "{label}: service records");
    assert_eq!(golden.ledgers, got.ledgers, "{label}: link ledgers");
    assert_eq!(golden.bufs.len(), got.bufs.len(), "{label}: link count");
    for (i, (g, c)) in golden.bufs.iter().zip(&got.bufs).enumerate() {
        let cut = trace_offset(snapshot, i);
        assert!(
            cut <= g.len(),
            "{label}: link {i} checkpoint offset {cut} beyond golden trace"
        );
        assert_eq!(
            &g[cut..],
            c.as_str(),
            "{label}: link {i} resumed trace is not the golden tail"
        );
    }
}

/// The reduced Fig. 3 workload on one link (mirrors
/// `parallel_determinism::fig3_net`): five sources, a 30 ms outage, one
/// finite buffer.
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

/// The 3-link tandem with cross traffic, mid-run outage on the middle
/// link, and churn (mirrors `parallel_determinism::tandem_net`).
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
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: 10e6 });
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(0));
    net
}

const FIG3_FLOWS: &[u32] = &[1, 2, 11, 31, 16];
const TANDEM_FLOWS: &[u32] = &[0, 100, 101, 102];

#[test]
fn fig3_snapshot_is_observationally_a_noop_and_byte_deterministic() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = artifacts(seq, FIG3_FLOWS, &[1]);

    // Snapshot mid-run (just past the outage window, queues still
    // draining), twice in a row, and from an independent identical run:
    // all captures must be byte-identical and perturb nothing.
    let mut net = fig3_net();
    net.run(1.0);
    let snap_a = net.snapshot().unwrap();
    let snap_b = net.snapshot().unwrap();
    assert_eq!(
        snap_a.to_bytes(),
        snap_b.to_bytes(),
        "re-capture at the same instant changed bytes"
    );
    let mut twin = fig3_net();
    twin.run(1.0);
    assert_eq!(
        twin.snapshot().unwrap().to_bytes(),
        snap_a.to_bytes(),
        "identical runs captured different bytes"
    );
    // Text round-trip preserves the tree.
    let reparsed = snap::parse(&snap_a.to_text()).unwrap();
    assert_eq!(reparsed.to_bytes(), snap_a.to_bytes());

    net.run(2.0);
    let cont = artifacts(net, FIG3_FLOWS, &[1]);
    assert_artifacts_match(&golden, &cont, "fig3 snapshot+continue");
}

/// Format v1 carried a per-link train of planned transmissions that the
/// current format cannot hold: restoring one must fail, not drop them.
#[test]
fn version_1_snapshot_is_refused() {
    let mut net = fig3_net();
    net.run(1.0);
    let mut snap = net.snapshot().unwrap();
    let Value::Map(fields) = &mut snap else {
        panic!("snapshot is not a map");
    };
    let (_, version) = fields.iter_mut().find(|(k, _)| k == "v").unwrap();
    assert_eq!(*version, Value::U64(2));
    *version = Value::U64(1);
    let err = fig3_net().restore(&snap).unwrap_err();
    assert!(err.what.contains("snapshot version 1 unsupported"), "{err}");
}

#[test]
fn fig3_rollback_and_resume_replay_byte_identically() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = artifacts(seq, FIG3_FLOWS, &[1]);
    assert!(golden.merged.lines().count() > 1000, "trace too small");

    let mut net = fig3_net();
    net.run(1.0);
    let snap = net.snapshot().unwrap();

    // Rollback: run to completion, then rewind the same network to the
    // checkpoint — trace tail truncated — and replay.
    net.run(2.0);
    net.restore(&snap).unwrap();
    net.run(2.0);
    let rolled = artifacts(net, FIG3_FLOWS, &[1]);
    assert_artifacts_match(&golden, &rolled, "fig3 rollback");

    // Resume: restore into a freshly built topology and run the tail.
    let mut fresh = fig3_net();
    fresh.restore(&snap).unwrap();
    fresh.run(2.0);
    let resumed = artifacts(fresh, FIG3_FLOWS, &[1]);
    assert_resumed_match(&golden, &resumed, &snap, "fig3 resume");
}

#[test]
fn tandem_rollback_and_resume_replay_byte_identically() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = artifacts(seq, TANDEM_FLOWS, &[0]);
    assert!(golden.merged.lines().count() > 1000, "trace too small");
    // Non-trivial scenario: churn purged bytes mid-path.
    let tandem = golden.flows.iter().find(|&&(f, _)| f == 0).unwrap();
    assert!(tandem.1.purged_bytes > 0, "{:?}", tandem.1);

    // Checkpoint instants bracketing the outage and both churn events.
    for t in [0.5, 1.02, 2.5, 3.5] {
        let mut net = tandem_net();
        net.run(t);
        let snap = net.snapshot().unwrap();

        net.run(8.0);
        net.restore(&snap).unwrap();
        net.run(8.0);
        let rolled = artifacts(net, TANDEM_FLOWS, &[0]);
        assert_artifacts_match(&golden, &rolled, &format!("tandem rollback t={t}"));

        let mut fresh = tandem_net();
        fresh.restore(&snap).unwrap();
        fresh.run(8.0);
        let resumed = artifacts(fresh, TANDEM_FLOWS, &[0]);
        assert_resumed_match(&golden, &resumed, &snap, &format!("tandem resume t={t}"));
    }
}

#[test]
fn tandem_resume_runs_parallel_byte_identically() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = artifacts(seq, TANDEM_FLOWS, &[0]);

    // Restore a mid-run checkpoint into a fresh network and finish the
    // run *sharded*: the parallel tail must still be the golden tail.
    for n in [1usize, 2, 4] {
        let mut net = tandem_net();
        net.run(2.5);
        let snap = net.snapshot().unwrap();

        let mut fresh = tandem_net();
        fresh.restore(&snap).unwrap();
        fresh.run_parallel(8.0, n);
        let resumed = artifacts(fresh, TANDEM_FLOWS, &[0]);
        assert_resumed_match(&golden, &resumed, &snap, &format!("tandem parallel n={n}"));
    }
}
