//! Regenerates Fig. 5: close-up of RT-1's cumulative arrivals vs
//! cumulative service ("service lag") around the worst H-WFQ delay spike
//! of scenario 1. Under H-WF²Q+ the two curves track within about one
//! packet; under H-WFQ they separate by many packets.

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_bench::scenarios::fig3::{self, Scenario, FLOW_RT1};
use hpfq_core::SchedulerKind;
use hpfq_sim::ServiceRecord;

/// Cumulative (arrival, service) packet counts over a window.
fn curves(trace: &[ServiceRecord], t0: f64, t1: f64) -> Vec<(f64, usize, usize)> {
    // Event times: arrivals and departures inside the window.
    let mut events: Vec<f64> = trace
        .iter()
        .flat_map(|r| [r.arrival, r.end])
        .filter(|&t| t >= t0 && t <= t1)
        .collect();
    events.sort_by(|a, b| a.partial_cmp(b).unwrap());
    events.dedup();
    events
        .into_iter()
        .map(|t| {
            let arrived = trace.iter().filter(|r| r.arrival <= t).count();
            let served = trace.iter().filter(|r| r.end <= t).count();
            (t, arrived, served)
        })
        .collect()
}

fn main() {
    let dir = results_dir("fig5");
    let mut summary = Vec::new();
    let mut windows: Option<(f64, f64)> = None;

    for kind in [SchedulerKind::Wfq, SchedulerKind::Wf2qPlus] {
        let mut f = fig3::build(kind, Scenario::GuaranteedRates, 1);
        f.net.run(10.0);
        let trace: Vec<ServiceRecord> = f.net.stats.trace(FLOW_RT1).to_vec();
        // Window: ±0.5 s around the worst spike of the H-WFQ run (reused
        // for the H-WF2Q+ panel so both show the same interval).
        let (t0, t1) = *windows.get_or_insert_with(|| {
            let worst = trace
                .iter()
                .max_by(|a, b| a.delay().partial_cmp(&b.delay()).unwrap())
                .expect("RT-1 sent packets");
            (worst.arrival - 0.5, worst.arrival + 0.5)
        });
        let series = curves(&trace, t0, t1);
        let name = kind.name().replace('+', "p");
        let mut w = CsvWriter::create(
            dir.join(format!("lag_{name}.csv")),
            &["t_s", "arrived_pkts", "served_pkts"],
        )
        .expect("csv");
        let mut max_lag = 0usize;
        for &(t, a, s) in &series {
            w.row(&[t, a as f64, s as f64]).unwrap();
            max_lag = max_lag.max(a - s);
        }
        w.finish().unwrap();
        summary.push((kind.name(), t0, t1, max_lag));
    }

    println!("Fig 5 — RT-1 service lag close-up; series in results/fig5/");
    println!(
        "{:<8} {:>10} {:>10} {:>16}",
        "algo", "win_start", "win_end", "max_lag_packets"
    );
    for (algo, t0, t1, lag) in summary {
        println!("{algo:<8} {t0:>10.3} {t1:>10.3} {lag:>16}");
    }
    println!("(paper: curves track closely under H-WF2Q+, diverge under H-WFQ)");
}
