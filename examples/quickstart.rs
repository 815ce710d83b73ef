//! Quickstart: a standalone WF²Q+ server with three weighted sessions.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a depth-1 hierarchy (= one WF²Q+ server), enqueues a burst on
//! every session, and prints the transmission order: bandwidth splits
//! 50/30/20 at per-packet granularity, and no session can hog the link
//! even though session A's whole burst is queued first.

use hpfq::core::{Hierarchy, Packet, SchedulerKind};

fn main() {
    // 1 Mbit/s link; shares must sum to at most 1.
    let mut server = Hierarchy::builder(1_000_000.0, |r| SchedulerKind::Wf2qPlus.build(r)).build();
    let root = server.root();
    let a = server.add_leaf(root, 0.5).expect("valid share");
    let b = server.add_leaf(root, 0.3).expect("valid share");
    let c = server.add_leaf(root, 0.2).expect("valid share");

    // 1500-byte packets; session A enqueues its burst first.
    let mut id = 0;
    for (flow, leaf, count) in [(0u32, a, 10), (1, b, 6), (2, c, 4)] {
        for _ in 0..count {
            id += 1;
            server.enqueue(leaf, Packet::new(id, flow, 1500, 0.0));
        }
    }

    println!("transmission order (flow ids, shares 0.5/0.3/0.2):");
    let mut counts = [0usize; 3];
    let mut order = Vec::new();
    while let Some(pkt) = server.dequeue() {
        counts[pkt.flow as usize] += 1;
        order.push(pkt.flow);
    }
    println!("  {order:?}");
    println!("packets served per flow: {counts:?}");

    // Check the 5:3:2 split over the first 10 slots.
    let first10 = &order[..10];
    let split: Vec<usize> = (0..3)
        .map(|f| first10.iter().filter(|&&x| x == f).count())
        .collect();
    println!("first 10 slots split: {split:?} (ideal 5/3/2)");
}
