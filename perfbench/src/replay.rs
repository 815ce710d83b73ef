//! Standalone replays of single layers at a workload's own scale, for the
//! traced run's per-layer rows: a saturated `Hierarchy`, a hold-model
//! `EventQueue`, and a `SimStats` recording stream.

use std::hint::black_box;
use std::time::Instant;

use hpfq_core::{NodeId, Packet};
use hpfq_events::EventQueue;
use hpfq_sim::{ServiceRecord, SimStats, SmallRng};

use crate::workloads::{Plain, Workload};

/// Wall ns per saturated `enqueue` + `dequeue` pair on the workload's tree
/// shape, every leaf kept backlogged (two packets deep).
pub fn hierarchy_isolated_ns(w: Workload, budget_s: f64) -> f64 {
    let (mut h, leaves, bytes) = w.tree::<Plain>();
    let mut id = 0u64;
    for &leaf in &leaves {
        for _ in 0..2 {
            id += 1;
            h.enqueue(leaf, Packet::new(id, leaf.index() as u32, bytes, 0.0));
        }
    }
    let mut step = || {
        let pkt = h.dequeue().expect("saturated tree always has a packet");
        id += 1;
        let leaf = NodeId(pkt.flow as usize);
        h.enqueue(leaf, Packet::new(id, pkt.flow, bytes, 0.0));
        black_box(pkt.id);
    };
    // Warm: one pass over the leaves.
    for _ in 0..leaves.len().min(1 << 16) {
        step();
    }
    median_batch_ns(budget_s, 4096, &mut step)
}

/// Wall ns per `schedule_keyed` + `pop` pair on an event queue held at
/// `depth` outstanding events (the classic hold model), with an event
/// payload the size of the network's packet-carrying events.
pub fn event_hold_ns(depth: usize, budget_s: f64, seed: u64) -> f64 {
    let depth = depth.max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut q: EventQueue<[u64; 6]> = EventQueue::new();
    let mut exp = move || -(1.0 - rng.gen_f64()).ln();
    for i in 0..depth as u64 {
        q.schedule_keyed(exp() * depth as f64, i, [i; 6]);
    }
    let mut step = || {
        let (t, ev) = q.pop().expect("hold model keeps the queue non-empty");
        q.schedule_keyed(t + exp() * depth as f64, ev[0], black_box(ev));
    };
    median_batch_ns(budget_s, 4096, &mut step)
}

/// Wall ns per packet of the three per-packet `SimStats` calls
/// (`record_arrival`, `record_accept`, `record_service`), over the
/// workload's flow ids with its tracked set registered.
pub fn stats_replay_ns(flow_ids: &[u32], traced: &[u32], budget_s: f64, seed: u64) -> f64 {
    let mut stats = SimStats::new();
    for &f in traced {
        stats.trace_flow(f);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut id = 0u64;
    let mut one = |flow: u32, stats: &mut SimStats| {
        id += 1;
        t += 1e-6;
        let pkt = Packet::new(id, flow, 1000, t);
        stats.record_arrival(&pkt);
        stats.record_accept(&pkt);
        stats.record_service(ServiceRecord {
            id,
            flow,
            len_bytes: 1000,
            arrival: t,
            start: t,
            end: t + 1e-6,
        });
    };
    // Every flow has an entry before timing, as in a warmed-up run.
    for &f in flow_ids {
        one(f, &mut stats);
    }
    let n = flow_ids.len();
    let mut step = || {
        let f = flow_ids[rng.gen_range_usize(0, n)];
        one(f, &mut stats);
    };
    median_batch_ns(budget_s, 4096, &mut step)
}

/// Runs `step` in batches of `batch` calls until `budget_s` has passed
/// (at least 5 batches) and returns the median ns per call.
fn median_batch_ns(budget_s: f64, batch: usize, step: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        for _ in 0..batch {
            step();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
