//! Post-churn fairness: the ISSUE's differential acceptance check.
//!
//! N small flows churn in mid-run, the paper's Fig. 2 burst pattern fires,
//! half of them churn back out, and the pattern fires again against the
//! survivors. Theorem 1 bounds the B-WFI H-WF²Q+ grants every session
//! *through* the churn (one max-size packet per level); SCFQ's
//! self-clocked virtual time lets the bursting session run ahead by ~N/2
//! packets, so its measured unfairness on the identical schedule must
//! exceed WF²Q+'s.

use hpfq_analysis::{empirical_bwfi, service_curve_from_records, theorem1_bwfi, wf2q_plus_bwfi};
use hpfq_core::{Hierarchy, NodeScheduler, SchedulerKind};
use hpfq_sim::{Network, Route, SimCommand, TraceSource};

const RATE: f64 = 1000.0; // 1 packet per second
const PKT: u32 = 125; // 1000 bits
const PKT_BITS: f64 = 1000.0;
const N: usize = 8; // churn flows; half leave between rounds
const ROUND1: f64 = 2.0; // burst instants
const LEAVE_AT: f64 = 25.0; // round 1 drains by t = 20
const ROUND2: f64 = 27.0;
const HORIZON: f64 = 60.0;

/// Runs the churn + Fig. 2 schedule under one scheduler family; returns
/// each flow's measured B-WFI in bits (flow 0 = the bursting session,
/// flows 1..=N the churned-in smalls).
fn measured_bwfi<S: NodeScheduler>(factory: impl Fn(f64) -> S + 'static) -> Vec<f64> {
    // The burster lives under an intermediate class (so Theorem 1's path
    // has two levels); the churn flows join directly under the root,
    // which keeps a 0.5 spare budget for them.
    let mut bld = Hierarchy::builder(RATE, factory);
    let root = bld.root();
    let class = bld.add_internal(root, 0.5).unwrap();
    let big = bld.add_leaf(class, 1.0).unwrap();

    let mut net = Network::new();
    net.add_link(bld.build());
    let mut arrivals: Vec<Vec<(f64, f64)>> = Vec::new();

    let mut big_trace = vec![(ROUND1, PKT); N + 1];
    big_trace.extend(vec![(ROUND2, PKT); N + 1]);
    arrivals.push(big_trace.iter().map(|&(t, _)| (t, PKT_BITS)).collect());
    net.stats.trace_flow(0);
    net.add_route(
        0,
        TraceSource::new(0, big_trace),
        Route::single(big, None, 0.0),
    );

    // N small flows join (staggered) before round 1; half leave after the
    // round drains and sit out round 2.
    for i in 0..N {
        let flow = (i + 1) as u32;
        let leaves_early = i % 2 == 0;
        let mut entries = vec![(ROUND1, PKT)];
        if !leaves_early {
            entries.push((ROUND2, PKT));
        }
        arrivals.push(entries.iter().map(|&(t, _)| (t, PKT_BITS)).collect());
        net.stats.trace_flow(flow);
        net.schedule_command(
            1.0 + 0.05 * i as f64,
            SimCommand::AddFlow {
                parent: root,
                phi: 0.5 / N as f64,
                flow,
                source: Box::new(TraceSource::new(flow, entries)),
                buffer_bytes: None,
                delivery_delay: 0.0,
            },
        );
        if leaves_early {
            net.schedule_command(LEAVE_AT, SimCommand::RemoveFlow(flow));
        }
    }
    net.run(HORIZON);
    assert!(net.command_errors.is_empty(), "{:?}", net.command_errors);
    net.verify_conservation().unwrap();

    let all: Vec<_> = (0..=N as u32)
        .flat_map(|f| net.stats.trace(f).iter().copied())
        .collect();
    let w_server = service_curve_from_records(all.iter());
    (0..=N as u32)
        .map(|flow| {
            let w_i = service_curve_from_records(net.stats.trace(flow).iter());
            let share = if flow == 0 { 0.5 } else { 0.5 / N as f64 };
            empirical_bwfi(&arrivals[flow as usize], &w_i, &w_server, share)
        })
        .collect()
}

#[test]
fn wf2q_plus_post_churn_wfi_within_theorem1_and_below_scfq() {
    let wf2q = measured_bwfi(|r| SchedulerKind::Wf2qPlus.build(r));
    let scfq = measured_bwfi(|r| SchedulerKind::Scfq.build(r));

    // Theorem 1 / eq. (23): per-level α from eq. (30); all packets are
    // equal-size so each α is one packet.
    let bound_big = theorem1_bwfi(&[
        (
            1.0,
            wf2q_plus_bwfi(PKT_BITS, PKT_BITS, 0.5 * RATE, 0.5 * RATE),
        ),
        (1.0, wf2q_plus_bwfi(PKT_BITS, PKT_BITS, 0.5 * RATE, RATE)),
    ]);
    let bound_small = theorem1_bwfi(&[(
        1.0,
        wf2q_plus_bwfi(PKT_BITS, PKT_BITS, 0.5 / N as f64 * RATE, RATE),
    )]);

    for (flow, &measured) in wf2q.iter().enumerate() {
        let bound = if flow == 0 { bound_big } else { bound_small };
        assert!(
            measured <= bound + 1.0,
            "flow {flow}: WF²Q+ post-churn B-WFI {measured:.0} bits exceeds \
             Theorem 1 bound {bound:.0}"
        );
    }

    // Differential: on the identical churn schedule SCFQ's worst measured
    // unfairness must exceed WF²Q+'s (the paper's §3.4 point).
    let worst_wf2q = wf2q.iter().cloned().fold(0.0, f64::max);
    let worst_scfq = scfq.iter().cloned().fold(0.0, f64::max);
    assert!(
        worst_scfq > worst_wf2q + PKT_BITS,
        "expected SCFQ unfairness ({worst_scfq:.0} bits) to exceed \
         WF²Q+'s ({worst_wf2q:.0} bits) by at least a packet after churn"
    );
}
