//! End-to-end observability: the Fig. 3 scenario run under the full sink
//! stack — online invariant checking, JSONL trace emission and re-parsing,
//! offline service-record reconstruction, and the metrics registry — all
//! cross-checked against the simulator's own `SimStats` accounting.

use hpfq::analysis::{flow_records_from_trace, service_records_from_trace};
use hpfq::core::SchedulerKind;
use hpfq::obs::jsonl::{parse_line, parse_trace};
use hpfq::obs::{
    replay, DispatchEvent, InvariantObserver, JsonlObserver, MetricsObserver, Observer, TraceEvent,
};
use hpfq::sim::ServiceRecord;
use hpfq_bench::fig3::{self, Scenario, FLOW_BE1, FLOW_RT1};

/// The paper's evaluation hierarchy keeps every scheduler invariant: tag
/// order, virtual-time monotonicity, SEFF eligibility, work conservation.
#[test]
fn fig3_run_reports_zero_invariant_violations() {
    for kind in [
        SchedulerKind::Wf2qPlus,
        SchedulerKind::Wfq,
        SchedulerKind::Sfq,
    ] {
        let mut f = fig3::build_with_observer(
            kind,
            Scenario::OverloadedPlusConstant,
            7,
            InvariantObserver::new(),
        );
        f.net.run(2.0);
        assert!(
            f.net.stats.total_packets > 500,
            "{}: too little traffic",
            kind.name()
        );
        let inv = f.net.observer_of(0);
        assert!(
            inv.events_checked > 1_000,
            "{}: observer saw {} events",
            kind.name(),
            inv.events_checked
        );
        assert!(inv.is_clean(), "{}: {}", kind.name(), inv.summary());
    }
}

/// A JSONL trace captures the run completely: every line parses back, the
/// reconstructed service records equal the simulator's own, and replaying
/// the parsed events through fresh sinks reproduces their live state.
#[test]
fn jsonl_trace_round_trips_and_rebuilds_service_records() {
    let mut f = fig3::build_with_observer(
        SchedulerKind::Wf2qPlus,
        Scenario::GuaranteedRates,
        3,
        JsonlObserver::new(Vec::new()),
    );
    f.net.run(1.0);
    let live_rt1: Vec<ServiceRecord> = f.net.stats.trace(FLOW_RT1).to_vec();
    let total_packets = f.net.stats.total_packets;
    assert!(!live_rt1.is_empty());

    let obs = f.net.into_observers().remove(0);
    assert_eq!(obs.write_errors, 0);
    let text = String::from_utf8(obs.into_inner()).unwrap();
    let (events, skipped) = parse_trace(&text);
    assert_eq!(skipped, 0, "unparseable lines in emitted trace");

    // Offline reconstruction matches the live accounting exactly.
    let (records, anomalies) = service_records_from_trace(&events);
    assert_eq!(anomalies.unmatched_ends, 0);
    assert!(anomalies.unmatched_starts <= 1, "{anomalies:?}"); // horizon cut
    assert_eq!(records.len() as u64, total_packets);
    let rt1 = flow_records_from_trace(&events, FLOW_RT1);
    assert_eq!(rt1.len(), live_rt1.len());
    for (a, b) in rt1.iter().zip(&live_rt1) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.len_bytes, b.len_bytes);
        assert_eq!(a.arrival, b.arrival, "floats round-trip bit-exactly");
        assert_eq!(a.start, b.start);
        assert_eq!(a.end, b.end);
    }

    // Replay: recorded events drive any sink just like live ones.
    let mut inv = InvariantObserver::new();
    let mut metrics = MetricsObserver::new();
    for ev in &events {
        replay(&mut inv, ev);
        replay(&mut metrics, ev);
    }
    assert!(inv.is_clean(), "replayed trace: {}", inv.summary());
    assert_eq!(metrics.tx_packets, total_packets);
}

/// Two sinks tupled together each see the full stream; the registry's
/// totals agree with `SimStats` and its report renders.
#[test]
fn tupled_metrics_and_invariants_agree_with_sim_stats() {
    let mut f = fig3::build_with_observer(
        SchedulerKind::Wf2qPlus,
        Scenario::GuaranteedRates,
        11,
        (InvariantObserver::new(), MetricsObserver::new()),
    );
    f.net.run(1.5);
    let (inv, metrics) = f.net.observer_of(0);
    assert!(inv.is_clean(), "{}", inv.summary());
    assert_eq!(metrics.tx_packets, f.net.stats.total_packets);
    assert_eq!(metrics.tx_bytes, f.net.stats.total_bytes);
    for flow in [FLOW_RT1, FLOW_BE1] {
        let live = f.net.stats.flow(flow);
        let reg = metrics.flow(flow);
        assert_eq!(reg.packets, live.packets, "flow {flow}");
        assert_eq!(reg.bytes, live.bytes, "flow {flow}");
        // Bucketed percentiles are conservative: the p100 bucket's lower
        // edge never exceeds the exact maximum delay.
        assert!(reg.delay.quantile_low_edge(1.0) <= live.delay_max + 1e-12);
    }
    let report = metrics.report();
    assert!(report.contains("link:"), "{report}");
    assert!(report.contains("flow"), "{report}");
}

/// Every scheduler's policy name survives a JSONL round trip, so parsed
/// dispatch events keep the policy the policy-conditional checks key on.
#[test]
fn every_policy_name_survives_a_trace_round_trip() {
    for kind in SchedulerKind::ALL {
        let mut obs = JsonlObserver::new(Vec::new());
        obs.on_dispatch(&DispatchEvent {
            time: 0.5,
            link: 0,
            node: 0,
            session: 1,
            child: 2,
            start_tag: 0.0,
            finish_tag: 1e-3,
            phi: 0.5,
            v_before: 0.0,
            v_after: 1e-3,
            head_bits: 8000.0,
            node_rate: 8e6,
            policy: kind.name(),
        });
        let text = String::from_utf8(obs.into_inner()).unwrap();
        match parse_line(text.trim_end()) {
            Some(TraceEvent::Dispatch(e)) => assert_eq!(e.policy, kind.name()),
            other => panic!("{}: parsed {other:?}", kind.name()),
        }
    }
}
