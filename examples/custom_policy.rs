//! Custom scheduling policies on the PIFO substrate — defined entirely
//! outside `hpfq-core`.
//!
//! ```text
//! cargo run --example custom_policy
//! ```
//!
//! The seven in-tree policies are rank programs plugged into
//! [`PifoTree`]; this example shows the same extension point is open to
//! downstream code. Two programs are defined here, with no access to
//! `hpfq-core` internals:
//!
//! * [`PriorityRank`] — weighted strict priority: a session's share picks
//!   its priority class (larger share = served first), FIFO within a
//!   class. A newly backlogged high-priority session preempts the queue
//!   order, so ranks are *not* monotone and the program exercises the
//!   general dual-heap path.
//! * [`SjfRank`] — shortest-job-first: the pending head's length is its
//!   rank, ties in offer order. Starvation-prone by design — it's the
//!   classic counterexample the fair-queueing policies exist to fix, which
//!   makes it a nice smoke test that the substrate doesn't smuggle in
//!   fairness of its own.
//!
//! Both implement only the required hooks (`name`, `rank_backlog`,
//! `rank_continuation`) plus checkpointing for the sequence counter; the
//! eligibility threshold, admission, and virtual-clock hooks keep their
//! defaults.

use hpfq::core::{Hierarchy, Packet, PifoTree, Rank, RankProgram, SessionId, SessionTable};
use hpfq::obs::snap::{SnapError, Value};

/// Weighted strict priority: serve the largest-share backlogged session,
/// FIFO within equal shares.
#[derive(Debug, Clone, Default)]
struct PriorityRank {
    /// Offer counter for FIFO order within a priority class.
    seq: f64,
}

impl RankProgram for PriorityRank {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        _head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        // Larger share = smaller primary key = served first.
        self.seq += 1.0;
        Rank::open(-sessions.phi(id), self.seq)
    }

    fn rank_continuation(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        _bits: f64,
    ) -> Rank {
        self.seq += 1.0;
        Rank::open(-sessions.phi(id), self.seq)
    }

    fn on_busy_reset(&mut self) {
        self.seq = 0.0;
    }

    fn save_state(&self) -> Value {
        Value::map(vec![("seq", Value::F64(self.seq))])
    }

    fn load_state(&mut self, state: &Value, _sessions: &SessionTable) -> Result<(), SnapError> {
        self.seq = state.get("seq")?.as_f64()?;
        Ok(())
    }
}

/// Shortest-job-first: the head packet's length is its rank.
#[derive(Debug, Clone, Default)]
struct SjfRank {
    seq: f64,
}

impl RankProgram for SjfRank {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn rank_backlog(
        &mut self,
        _id: SessionId,
        _sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        self.seq += 1.0;
        Rank::open(head_bits, self.seq)
    }

    fn rank_continuation(
        &mut self,
        _id: SessionId,
        _sessions: &mut SessionTable,
        bits: f64,
    ) -> Rank {
        self.seq += 1.0;
        Rank::open(bits, self.seq)
    }

    fn on_busy_reset(&mut self) {
        self.seq = 0.0;
    }
}

/// Runs a 3-leaf server under the given program and returns the flow ids
/// in transmission order.
fn serve_order<P: RankProgram + Clone + 'static>(
    program: P,
    sizes: [u32; 3],
) -> (Vec<u32>, &'static str) {
    let name = program.name();
    let mut server = Hierarchy::builder(1_000_000.0, move |rate| {
        PifoTree::new(rate, program.clone())
    })
    .build();
    let root = server.root();
    let leaves = [
        server.add_leaf(root, 0.5).expect("valid share"),
        server.add_leaf(root, 0.3).expect("valid share"),
        server.add_leaf(root, 0.2).expect("valid share"),
    ];
    let mut id = 0;
    // Low-priority / long flows enqueue their whole bursts first.
    for flow in (0..3u32).rev() {
        for _ in 0..4 {
            id += 1;
            server.enqueue(
                leaves[flow as usize],
                Packet::new(id, flow, sizes[flow as usize], 0.0),
            );
        }
    }
    let mut order = Vec::new();
    while let Some(pkt) = server.dequeue() {
        order.push(pkt.flow);
    }
    (order, name)
}

fn main() {
    // Equal packet sizes: flow 2's first packet is already in service
    // when the higher classes arrive (service is non-preemptive), then
    // strict priority drains flow 0 (share 0.5), then 1, then 2 — even
    // though flow 2 enqueued its whole burst first.
    let (order, name) = serve_order(PriorityRank::default(), [1500, 1500, 1500]);
    println!("{name:>16}: {order:?}");
    assert_eq!(order, [2, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2]);

    // Distinct sizes: SJF serves 300-byte packets before 800-byte before
    // 1500-byte, regardless of shares or arrival order.
    let (order, name) = serve_order(SjfRank::default(), [1500, 800, 300]);
    println!("{name:>16}: {order:?}");
    assert_eq!(order, [2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0]);

    println!("custom rank programs ran on the PIFO substrate: ok");
}
