//! Regenerates Fig. 9: hierarchical link-sharing with TCP traffic (§5.2).
//!
//! (a) measured bandwidth of TCP-{1,5,8,10,11} under H-WF²Q+, 50 ms
//!     windows exponentially averaged, over the full 10 s run;
//! (b) the same curves against the ideal H-GPS allocation in
//!     [4.5 s, 8.5 s].
//!
//! Expected shape: measured curves track the piecewise-constant ideal
//! allocation through every on/off transition of the schedule (5000,
//! 5250, 6000, 6750, 7500, 8000, 8250, 9000 ms).

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_bench::scenarios::fig8::{self, ideal_timeline};
use hpfq_core::SchedulerKind;
use hpfq_sim::BandwidthEstimator;

const MEASURED: [u32; 5] = [1, 5, 8, 10, 11];

fn main() {
    let mut f = fig8::build(SchedulerKind::Wf2qPlus);
    f.net.run(10.0);

    let dir = results_dir("fig9");

    // (a) measured bandwidth, 50 ms windows, exponential smoothing.
    let mut w =
        CsvWriter::create(dir.join("measured_bw.csv"), &["flow", "t_s", "bw_bps"]).expect("csv");
    for &flow in &MEASURED {
        let mut est = BandwidthEstimator::new(0.0, 0.050, 0.3);
        for rec in f.net.stats.trace(flow) {
            est.add(rec.end, u64::from(rec.len_bytes));
        }
        for (t, bw) in est.finish(10.0) {
            w.row(&[f64::from(flow), t, bw]).unwrap();
        }
    }
    w.finish().unwrap();

    // (b) ideal H-GPS allocation per schedule interval in [4.5, 8.5].
    let timeline = ideal_timeline(&f, 4.5, 8.5);
    let mut w = CsvWriter::create(
        dir.join("ideal_bw.csv"),
        &["flow", "t_start", "t_end", "bw_bps"],
    )
    .expect("csv");
    for (s, e, alloc) in &timeline {
        for &flow in &MEASURED {
            // tcp_fluid is ordered TCP-1..TCP-11.
            let node = f.tcp_fluid[(flow - 1) as usize];
            w.row(&[f64::from(flow), *s, *e, alloc[node.0]]).unwrap();
        }
    }
    w.finish().unwrap();

    // Console summary: measured vs ideal average per interval.
    println!("Fig 9 — TCP link-sharing under H-WF2Q+; series in results/fig9/");
    println!(
        "{:>6} {:>9} {:>9} {:>12} {:>12} {:>8}",
        "flow", "t0", "t1", "ideal_bps", "meas_bps", "ratio"
    );
    let mut worst: f64 = 0.0;
    for (s, e, alloc) in &timeline {
        if e - s < 0.3 {
            continue; // skip slivers: TCP needs a few RTTs to converge
        }
        // Measure over the second half of the interval (converged).
        let m0 = s + (e - s) * 0.4;
        for &flow in &MEASURED {
            let node = f.tcp_fluid[(flow - 1) as usize];
            let ideal = alloc[node.0];
            let meas = hpfq_analysis::measures::bandwidth_over(f.net.stats.trace(flow), m0, *e);
            let ratio = meas / ideal;
            worst = worst.max((ratio - 1.0).abs());
            println!(
                "{:>6} {:>9.3} {:>9.3} {:>12.0} {:>12.0} {:>8.3}",
                flow, s, e, ideal, meas, ratio
            );
        }
    }
    println!("\nworst |measured/ideal - 1| over converged intervals: {worst:.3}");
    println!("(paper: measured bandwidth tracks the ideal H-GPS curves closely)");
}
