//! Corollary 2 verification: measured maximum delay of a leaky-bucket
//! session under H-WF²Q+ vs the analytic bound
//! `σ/r_i + Σ_h L_max/r_{p^h(i)}`, across randomized hierarchies with
//! saturating cross traffic.

use hpfq_analysis::{corollary2_bound, CsvWriter};
use hpfq_bench::experiments::results_dir;
use hpfq_core::{vtime, Hierarchy, NodeId, SchedulerKind};
use hpfq_sim::{CbrSource, GreedyLbSource, Network, Route, SmallRng};

const PKT: u32 = 1000; // bytes; L_max = 8000 bits
const LINK: f64 = 1e6;

struct Trial {
    depth: usize,
    bound: f64,
    measured: f64,
}

fn run_trial(rng: &mut SmallRng, depth: usize) -> Trial {
    let mut bld = Hierarchy::builder(LINK, |r| SchedulerKind::Wf2qPlus.build(r));
    let mut parent = bld.root();
    let mut rates_path_rev = Vec::new(); // root-side first, leaf last

    // Build a chain of internal nodes; at each level attach one saturating
    // cross-traffic leaf taking the remaining share.
    let mut cross_leaves: Vec<(NodeId, f64)> = Vec::new();
    for _ in 0..depth {
        let phi_class = rng.gen_range_f64(0.4, 0.7);
        let class = bld.add_internal(parent, phi_class).unwrap();
        let cross = bld.add_leaf(parent, 1.0 - phi_class).unwrap();
        cross_leaves.push((cross, bld.rate(cross)));
        rates_path_rev.push(bld.rate(class));
        parent = class;
    }
    // Measured leaf plus one sibling saturator.
    let phi_leaf = rng.gen_range_f64(0.3, 0.6);
    let leaf = bld.add_leaf(parent, phi_leaf).unwrap();
    let sib = bld.add_leaf(parent, 1.0 - phi_leaf).unwrap();
    cross_leaves.push((sib, bld.rate(sib)));
    let r_i = bld.rate(leaf);
    rates_path_rev.push(r_i);
    let h = bld.build();

    let mut rates_path = rates_path_rev.clone();
    rates_path.reverse(); // leaf-first, as corollary2_bound expects

    let sigma_pkts = rng.gen_range_u32(2, 8);
    let sigma_bits = f64::from(sigma_pkts * PKT) * 8.0;

    let mut net = Network::new();
    net.add_link(h);
    net.stats.trace_flow(0);
    net.add_route(
        0,
        GreedyLbSource::new(0, PKT, sigma_pkts * PKT, r_i, 0.0, 30.0),
        Route::single(leaf, None, 0.0),
    );
    for (i, &(cl, cr)) in cross_leaves.iter().enumerate() {
        let flow = (i + 1) as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, cr * 1.3, 0.0, 30.0),
            Route::single(cl, None, 0.0),
        );
    }
    net.run(40.0);

    let measured = net
        .stats
        .trace(0)
        .iter()
        .map(|r| r.delay())
        .fold(0.0, f64::max);
    let bound = corollary2_bound(sigma_bits, f64::from(PKT) * 8.0, &rates_path);
    Trial {
        depth: depth + 1,
        bound,
        measured,
    }
}

fn main() {
    let mut rng = SmallRng::seed_from_u64(7);
    println!("Corollary 2: measured max delay vs bound, H-WF2Q+, random hierarchies");
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>8}",
        "trial", "depth", "bound_ms", "meas_ms", "ratio"
    );
    let dir = results_dir("delay_bound_table");
    let mut w = CsvWriter::create(
        dir.join("bounds.csv"),
        &["trial", "depth", "bound_ms", "measured_ms"],
    )
    .unwrap();
    let mut violations = 0;
    let mut trial_no = 0;
    for depth in [0usize, 1, 2, 3] {
        for _ in 0..5 {
            trial_no += 1;
            let t = run_trial(&mut rng, depth);
            let ratio = t.measured / t.bound;
            if vtime::strictly_after(t.measured, t.bound) {
                violations += 1;
            }
            println!(
                "{:>6} {:>6} {:>12.3} {:>12.3} {:>8.3}",
                trial_no,
                t.depth,
                t.bound * 1e3,
                t.measured * 1e3,
                ratio
            );
            w.row(&[
                trial_no as f64,
                t.depth as f64,
                t.bound * 1e3,
                t.measured * 1e3,
            ])
            .unwrap();
        }
    }
    w.finish().unwrap();
    println!("\nbound violations: {violations} / {trial_no} (expected 0)");
    assert_eq!(violations, 0, "Corollary 2 must hold");
}
