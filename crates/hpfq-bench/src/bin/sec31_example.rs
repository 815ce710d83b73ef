//! Regenerates the §3.1 worked comparison: 1001 classes share a 100 Mbit/s
//! link (1500 B packets). Class A1 holds 50% and contains a real-time
//! subclass (30% of the link) and a best-effort subclass (20%); the other
//! 1000 classes hold 0.05% each.
//!
//! A1's best-effort subclass bursts ~1000 packets at t=0 while every other
//! class offers one packet. Under H-WFQ the link serves A1's burst far
//! ahead of its GPS schedule, so a real-time packet arriving just after
//! the burst waits for ~1000 catch-up packets (~120 ms, as the paper
//! computes); under H-WF²Q+ it is served within ~L/r_rt ≈ 0.4 ms.

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq_sim::{Network, Route, TraceSource};

const LINK: f64 = 100e6;
const PKT: u32 = 1500;
const N_OTHER: usize = 1000;

const FLOW_RT: u32 = 1;
const FLOW_BE: u32 = 2;

fn rt_delay(kind: SchedulerKind) -> f64 {
    let mut bld = Hierarchy::<MixedScheduler>::builder(LINK, move |r| kind.build(r));
    let root = bld.root();
    let a1 = bld.add_internal(root, 0.5).unwrap();
    let rt = bld.add_leaf(a1, 0.6).unwrap(); // 30% of the link
    let be = bld.add_leaf(a1, 0.4).unwrap(); // 20% of the link
    let phi_other = 0.5 / N_OTHER as f64; // 0.05% each
    let mut others = Vec::new();
    for _ in 0..N_OTHER {
        others.push(bld.add_leaf(root, phi_other).unwrap());
    }

    let mut net = Network::new();
    net.add_link(bld.build());
    net.stats.trace_flow(FLOW_RT);

    // Best-effort burst: 1001 packets at t=0 (the Fig. 2 pattern at the
    // A1 level of the hierarchy).
    net.add_route(
        FLOW_BE,
        TraceSource::new(FLOW_BE, vec![(0.0, PKT); N_OTHER + 1]),
        Route::single(be, None, 0.0),
    );
    // Each other class: one packet at t=0.
    for (i, &leaf) in others.iter().enumerate() {
        let flow = 100 + i as u32;
        net.add_route(
            flow,
            TraceSource::new(flow, vec![(0.0, PKT)]),
            Route::single(leaf, None, 0.0),
        );
    }
    // The real-time packet arrives just after H-WFQ finishes serving the
    // burst ahead of schedule: 1001 packet times ≈ 120.1 ms... the paper's
    // adversarial instant. (Under H-WF²Q+ the system state at that moment
    // is entirely different, but the arrival time is the same.)
    let t_rt = (N_OTHER as f64 + 1.5) * f64::from(PKT) * 8.0 / LINK;
    net.add_route(
        FLOW_RT,
        TraceSource::new(FLOW_RT, vec![(t_rt, PKT)]),
        Route::single(rt, None, 0.0),
    );

    net.run(10.0);
    let tr = net.stats.trace(FLOW_RT);
    assert_eq!(tr.len(), 1, "the RT packet must be transmitted");
    tr[0].delay()
}

fn main() {
    println!("§3.1: delay of a real-time packet (30% reservation) arriving after");
    println!("a best-effort burst, 1001 classes on 100 Mbit/s, 1500 B packets\n");
    println!("paper's arithmetic: H-WFQ ≈ 120 ms, ideal ≈ 0.4 ms\n");
    let dir = results_dir("sec31_example");
    let mut w = CsvWriter::create(dir.join("rt_delay.csv"), &["algo", "delay_ms"]).expect("csv");
    println!("{:<8} {:>12}", "algo", "delay_ms");
    for kind in [
        SchedulerKind::Wfq,
        SchedulerKind::Wf2q,
        SchedulerKind::Wf2qPlus,
        SchedulerKind::Scfq,
        SchedulerKind::Sfq,
    ] {
        let d = rt_delay(kind);
        println!("{:<8} {:>12.3}", kind.name(), d * 1e3);
        w.labeled_row(kind.name(), &[d * 1e3]).unwrap();
    }
    w.finish().unwrap();
}
