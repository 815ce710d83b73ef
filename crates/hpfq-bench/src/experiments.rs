//! Shared machinery for the per-figure experiment binaries.

use std::path::PathBuf;

use hpfq_analysis::{delay_series, percentile, CsvWriter};
use hpfq_core::SchedulerKind;

use crate::scenarios::fig3::{self, Scenario, FLOW_RT1};

/// Directory experiment CSVs are written into: `results/<name>/`.
pub fn results_dir(name: &str) -> PathBuf {
    PathBuf::from("results").join(name)
}

/// Summary of one delay run.
#[derive(Debug, Clone)]
pub struct DelaySummary {
    /// Scheduler name.
    pub algo: &'static str,
    /// Packets measured.
    pub packets: usize,
    /// Mean delay (s).
    pub mean: f64,
    /// 99th percentile delay (s).
    pub p99: f64,
    /// Maximum delay (s).
    pub max: f64,
}

/// Runs the Fig. 3 scenario for `seconds` under each of the given policies,
/// writing per-packet `(arrival, delay)` series for RT-1 to
/// `results/<name>/delay_<algo>.csv` and returning summaries — the engine
/// behind the paper's Figs. 4, 6 and 7 (H-WFQ vs H-WF²Q+ delay plots).
pub fn run_fig3_delays(
    name: &str,
    scenario: Scenario,
    kinds: &[SchedulerKind],
    seconds: f64,
    seed: u64,
) -> Vec<DelaySummary> {
    let dir = results_dir(name);
    let mut out = Vec::new();
    for &kind in kinds {
        let mut f = fig3::build(kind, scenario, seed);
        f.net.run(seconds);
        let trace = f.net.stats.trace(FLOW_RT1);
        let series = delay_series(trace);
        let path = dir.join(format!("delay_{}.csv", kind.name().replace('+', "p")));
        let mut w = CsvWriter::create(&path, &["arrival_s", "delay_s"]).expect("write csv");
        for &(t, d) in &series {
            w.row(&[t, d]).expect("row");
        }
        w.finish().expect("flush");
        let delays: Vec<f64> = series.iter().map(|&(_, d)| d).collect();
        out.push(DelaySummary {
            algo: kind.name(),
            packets: delays.len(),
            mean: delays.iter().sum::<f64>() / delays.len().max(1) as f64,
            p99: percentile(&delays, 0.99),
            max: delays.iter().cloned().fold(0.0, f64::max),
        });
    }
    out
}

/// Prints delay summaries as an aligned table.
pub fn print_delay_table(title: &str, rows: &[DelaySummary]) {
    println!("{title}");
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>12}",
        "algo", "packets", "mean_ms", "p99_ms", "max_ms"
    );
    for r in rows {
        println!(
            "{:<8} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            r.algo,
            r.packets,
            r.mean * 1e3,
            r.p99 * 1e3,
            r.max * 1e3
        );
    }
}
