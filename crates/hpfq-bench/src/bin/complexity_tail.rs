//! Worst-case single-call *work* — the honest form of the §3.4
//! complexity comparison.
//!
//! Amortized per-packet cost is O(log N) for *all* the virtual-time
//! schedulers (see the `scheduler_ops` bench): the GPS clock's O(N)
//! departure processing spreads its work across a busy period. What
//! WF²Q+ actually buys is a *bounded worst case*: eq. (27) does
//! O(log N) work on every single operation, while `V_GPS` can owe up to
//! N fluid departures to one unlucky call. Wall-clock maxima are
//! hopelessly noisy on a shared machine, so this binary measures the
//! deterministic quantity directly: the largest number of fluid
//! departures any single clock advance processed
//! ([`hpfq_core::GpsClock::worst_sweep`]) under a drain-refill workload
//! in which all N sessions' fluid backlogs empty between two packet
//! events.

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_core::pifo::rank::{Wf2qRank, WfqRank};
use hpfq_core::{NodeScheduler, PifoTree};

const PKT_BITS: f64 = 12_000.0;

/// Drives `rounds` drain-refill cycles through `s` and returns the
/// scheduler's worst clock sweep, queried by `probe`.
///
/// Per round: all N sessions send one packet and (except a keeper) go
/// idle — leaving N−1 fluid departures pending at virtual time ≈ N·L/r —
/// then the keeper alone transmits N more packets, pushing reference
/// time well past that pile without touching the clock. The next round's
/// first `backlog` must then integrate across the entire pile in a
/// single call: the O(N) charge.
fn run<S: NodeScheduler>(s: &mut S, n: usize, rounds: usize, probe: impl Fn(&S) -> usize) -> usize {
    let ids: Vec<_> = (0..n).map(|_| s.add_session(1.0 / n as f64)).collect();
    let keeper = ids[n - 1];
    for &id in &ids {
        s.backlog(id, PKT_BITS, None);
    }
    for _ in 0..rounds {
        // Drain: everyone transmits once; only the keeper stays.
        for _ in 0..n {
            let id = s.select_next().expect("backlogged");
            s.requeue(id, if id == keeper { Some(PKT_BITS) } else { None });
        }
        // Keeper monopolizes the link for N packets: reference time moves
        // far past the pending departure pile.
        for _ in 0..n {
            let id = s.select_next().expect("keeper backlogged");
            assert_eq!(id, keeper);
            s.requeue(id, Some(PKT_BITS));
        }
        // Refill: the first stamp pays the accumulated sweep.
        for &id in &ids[..n - 1] {
            s.backlog(id, PKT_BITS, None);
        }
    }
    // Final drain.
    while let Some(id) = s.select_next() {
        s.requeue(id, None);
    }
    probe(s)
}

fn main() {
    let sizes = [64usize, 256, 1024, 4096, 16384];
    println!("worst fluid-departure sweep of a single V_GPS advance (drain-refill, 20 rounds)");
    println!("(WF2Q+ has no GPS clock: its per-call work is O(log N) by construction)");
    println!();
    print!("{:<8}", "algo");
    for n in sizes {
        print!(" {:>9}", format!("N={n}"));
    }
    println!();
    let dir = results_dir("complexity_tail");
    let mut w = CsvWriter::create(dir.join("tail.csv"), &["algo", "n", "worst_sweep"]).unwrap();
    print!("{:<8}", "wfq");
    for n in sizes {
        let mut s = PifoTree::new(1e9, WfqRank::new());
        let sweep = run(&mut s, n, 20, |s| s.program().worst_clock_sweep());
        print!(" {sweep:>9}");
        w.labeled_row("wfq", &[n as f64, sweep as f64]).unwrap();
    }
    println!();
    print!("{:<8}", "wf2q");
    for n in sizes {
        let mut s = PifoTree::new(1e9, Wf2qRank::new());
        let sweep = run(&mut s, n, 20, |s| s.program().worst_clock_sweep());
        print!(" {sweep:>9}");
        w.labeled_row("wf2q", &[n as f64, sweep as f64]).unwrap();
    }
    println!();
    w.finish().unwrap();
    println!("\nthe sweep grows linearly in N: a single packet event can be charged");
    println!("O(N) clock work under WFQ/WF2Q — the cost WF2Q+'s eq. 27 eliminates.");
}
