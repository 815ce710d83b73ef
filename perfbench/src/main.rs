//! End-to-end `Network` benchmark.
//!
//! ```text
//! hpfq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--expect-digest <hex>]
//! ```
//!
//! Untraced (`--trace 0`): a check copy runs the deterministic warm-up and
//! records the per-flow `SimStats` digest; the timed copy repeats the
//! warm-up (its digest must match), then runs `Network::run` — or
//! `run_parallel` for the sharded workload — over growing horizons for
//! `--seconds` of wall time, with short bursts of set-up-only builds
//! between its segments. Quality replicas built from fixed reference seeds
//! give the simulated delay and B-WFI metrics.
//!
//! Traced (`--trace 1`): an untraced reference run, the same segments
//! behind the tracing wrappers of [`trace`], and standalone replays of
//! single layers; prints the per-layer breakdown.
//!
//! Results are plain lines: `metric <name> <value> <unit>`,
//! `detail <key> <value>...` and, last, `checks <attempted> <failed>`;
//! `run.py` turns them into the JSON result.

mod replay;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use hpfq_analysis::{empirical_bwfi, percentile, service_curve_from_records};
use hpfq_core::NodeScheduler;
use hpfq_fluid::ServiceCurve;
use hpfq_obs::Observer;
use hpfq_sim::{FallbackReason, Network, ServiceRecord, SimStats};

use trace::{CountingAlloc, CountingObserver};
use workloads::{Built, Plain, Runner, Traced, Tracked, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Timed segments an end-to-end run aims for: p90 then leaves ≥ 10
/// segments beyond it.
const TARGET_SEGMENTS: f64 = 120.0;
/// Segments of the traced run's reference (no percentile beyond p50 is
/// read there, so they can be longer).
const TRACED_SEGMENTS: f64 = 30.0;
const MIN_SEGMENTS: usize = 100;
/// Seed the quality replicas derive theirs from (see
/// [`Workload::quality_plan`]).
const QUALITY_REFERENCE_SEED: u64 = 0;
/// Quantile of the per-build times that `setup_s` reports.
const SETUP_QUANTILE: f64 = 0.1;
/// Build times one untraced run keeps at most.
const SETUP_SAMPLES_MAX: usize = 1 << 16;
/// Records per window fed to the (quadratic) empirical B-WFI, and per
/// session in total.
const WFI_WINDOW: usize = 2000;
const WFI_RECORDS_PER_FLOW: usize = 150_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expect_digest: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut expect_digest = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                })
            }
            "--expect-digest" => {
                expect_digest = Some(
                    u64::from_str_radix(&val, 16).map_err(|e| format!("--expect-digest: {e}"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        expect_digest,
    })
}

/// Correctness checks run so far.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            let what = what.into();
            println!("CHECK FAILED: {what}");
            self.failed.push(what);
        }
    }
}

/// What the parallel runtime reported over a run's calls.
#[derive(Default)]
struct ParAgg {
    epochs: u64,
    checkpoints: u64,
    rollbacks: u64,
    failures: usize,
    fallback: Option<FallbackReason>,
}

/// Advances `net` to `horizon` with `runner`; returns the packets served.
fn advance<S, O>(net: &mut Network<S, O>, runner: Runner, horizon: f64, agg: &mut ParAgg) -> u64
where
    S: NodeScheduler + Send,
    O: Observer + Send,
{
    let before = net.stats.total_packets;
    match runner {
        Runner::Sequential => net.run(horizon),
        Runner::Parallel(n) => {
            let r = net.run_parallel(horizon, n);
            agg.epochs += r.epochs;
            agg.checkpoints += r.checkpoints;
            agg.rollbacks += r.rollbacks;
            agg.failures += r.failures.len();
            if agg.fallback.is_none() {
                agg.fallback = r.fallback;
            }
        }
    }
    net.stats.total_packets - before
}

/// The deterministic warm-up; returns `(horizon reached, simulated
/// seconds per wall second)`.
fn warm_up<S, O>(
    net: &mut Network<S, O>,
    w: Workload,
    runner: Runner,
    agg: &mut ParAgg,
) -> (f64, f64)
where
    S: NodeScheduler + Send,
    O: Observer + Send,
{
    let (delta, segs) = w.warmup();
    let t = Instant::now();
    let mut h = 0.0;
    for k in 1..=segs {
        h = delta * k as f64;
        advance(net, runner, h, agg);
    }
    (h, h / t.elapsed().as_secs_f64().max(1e-9))
}

/// One timed stretch of segments.
#[derive(Default)]
struct Timed {
    seg_ns_per_pkt: Vec<f64>,
    /// Horizon each segment ran to.
    horizons: Vec<f64>,
    wall_s: f64,
    pkts: u64,
    horizon: f64,
}

impl Timed {
    fn ns_per_pkt(&self) -> f64 {
        self.wall_s * 1e9 / self.pkts.max(1) as f64
    }
    fn seg_quantile(&self, q: f64) -> f64 {
        percentile(&self.seg_ns_per_pkt, q)
    }
    fn seg_mean_ns(&self) -> f64 {
        self.wall_s * 1e9 / self.horizons.len().max(1) as f64
    }

    /// Advances `net` to `horizon` as one timed segment.
    fn segment<S, O>(
        &mut self,
        net: &mut Network<S, O>,
        runner: Runner,
        horizon: f64,
        agg: &mut ParAgg,
    ) -> f64
    where
        S: NodeScheduler + Send,
        O: Observer + Send,
    {
        let t = Instant::now();
        let pkts = advance(net, runner, horizon, agg);
        let wall = t.elapsed().as_secs_f64();
        self.wall_s += wall;
        self.pkts += pkts;
        self.horizon = horizon;
        self.horizons.push(horizon);
        if pkts > 0 {
            self.seg_ns_per_pkt.push(wall * 1e9 / pkts as f64);
        }
        wall
    }
}

/// Runs segments of growing horizon from `start_h` until `seconds` of wall
/// time have been spent inside them. Segment width starts from the
/// warm-up speed and is re-sized after every segment so the run ends near
/// `target` segments. `between` runs after each segment, outside the
/// timed region.
#[allow(clippy::too_many_arguments)]
fn timed_segments<S, O>(
    net: &mut Network<S, O>,
    runner: Runner,
    start_h: f64,
    sim_per_wall: f64,
    seconds: f64,
    target: f64,
    agg: &mut ParAgg,
    mut between: impl FnMut(),
) -> Timed
where
    S: NodeScheduler + Send,
    O: Observer + Send,
{
    let mut delta = seconds / target * sim_per_wall;
    let mut out = Timed {
        horizon: start_h,
        ..Timed::default()
    };
    while out.wall_s < seconds {
        let wall = out.segment(net, runner, out.horizon + delta, agg);
        between();
        let done = out.horizons.len() as f64;
        let want = (seconds - out.wall_s) / (target - done).max(5.0);
        delta *= (want / wall.max(1e-9)).clamp(0.5, 2.0);
    }
    out
}

/// Runs exactly the segments `horizons` (another run's), so two builds of
/// the workload are timed over the same simulated work. `between` runs
/// after each segment, outside the timed region.
fn same_segments<S, O>(
    net: &mut Network<S, O>,
    runner: Runner,
    horizons: &[f64],
    agg: &mut ParAgg,
    mut between: impl FnMut(&Network<S, O>),
) -> Timed
where
    S: NodeScheduler + Send,
    O: Observer + Send,
{
    let mut out = Timed::default();
    for &h in horizons {
        out.segment(net, runner, h, agg);
        between(net);
    }
    out
}

/// Order-sensitive digest of every flow's `SimStats` totals.
fn digest(stats: &SimStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for flow in stats.flows() {
        let f = stats.flow(flow);
        for x in [
            u64::from(flow),
            f.packets,
            f.bytes,
            f.drops,
            f.drop_bytes,
            f.offered_packets,
            f.accepted_packets,
            f.purged_packets,
            f.delay_sum.to_bits(),
            f.delay_max.to_bits(),
            f.last_departure.to_bits(),
        ] {
            mix(x);
        }
    }
    mix(stats.total_packets);
    mix(stats.total_bytes);
    h
}

/// Tracked-flow service records up to the quality horizon, drained from
/// `SimStats` traces.
struct QualityTrace {
    horizon: f64,
    delays: Vec<f64>,
    /// Per `(replica, flow)` records of the B-WFI sessions.
    wfi: BTreeMap<(usize, u32), Vec<ServiceRecord>>,
}

impl QualityTrace {
    /// Moves every record that ended by the horizon out of `stats`;
    /// records after it are dropped.
    fn drain(&mut self, replica: usize, stats: &mut SimStats, flows: &[u32], tracked: &[Tracked]) {
        for &f in flows {
            let recs = stats.extract_trace(f);
            let kept: Vec<ServiceRecord> =
                recs.into_iter().filter(|r| r.end <= self.horizon).collect();
            self.delays.extend(kept.iter().map(|r| r.delay()));
            if tracked.iter().any(|t| t.flow == f) {
                self.wfi.entry((replica, f)).or_default().extend(kept);
            }
        }
    }
}

/// Overlapping windows of one session's records for the (quadratic)
/// empirical B-WFI: `WFI_WINDOW` records every `WFI_WINDOW / 2`, so every
/// backlogged interval spanning at most half a window lies inside one.
/// Each window opens at the end of the session's previous packet, with
/// earlier arrivals moved to that instant: from there on the window's
/// records are exactly the session's queue and service, so a window that
/// opens inside a backlogged period measures it without error; cutting a
/// window short at its end can only lower the value.
fn wfi_windows(recs: &[ServiceRecord]) -> Vec<(f64, &[ServiceRecord])> {
    let n = recs.len().min(WFI_RECORDS_PER_FLOW);
    let mut out = Vec::new();
    let mut s = 0;
    loop {
        let opens = if s == 0 {
            f64::NEG_INFINITY
        } else {
            recs[s - 1].end
        };
        let e = (s + WFI_WINDOW).min(n);
        out.push((opens, &recs[s..e]));
        if e == n {
            return out;
        }
        s += WFI_WINDOW / 2;
    }
}

/// Simulated quality of the tracked flows: p99 queueing delay (µs) and the
/// largest empirical B-WFI over its Theorem 1 bound. Each session's B-WFI
/// must stay within the bound plus one maximum packet.
fn quality(q: &QualityTrace, tracked: &[Tracked], checks: &mut Checks) -> (f64, f64, usize) {
    let mut ratio_max: f64 = 0.0;
    let mut over_closed_form = 0;
    for (&(replica, flow), recs) in &q.wfi {
        let Some(tr) = tracked.iter().find(|t| t.flow == flow) else {
            continue;
        };
        if recs.is_empty() {
            checks.check(
                false,
                format!("replica {replica}: tracked flow {flow} served no packet"),
            );
            continue;
        }
        let mut measured: f64 = 0.0;
        for (opens, win) in wfi_windows(recs) {
            let mut arrivals: Vec<(f64, f64)> = win
                .iter()
                .map(|r| (r.arrival.max(opens), f64::from(r.len_bytes) * 8.0))
                .collect();
            arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let w_i = service_curve_from_records(win.iter());
            // While the session is backlogged its link is busy, so the
            // server curve over any backlogged interval is the line rate.
            let t0 = arrivals[0].0;
            let t1 = win.iter().map(|r| r.end).fold(t0, f64::max);
            let mut w_s = ServiceCurve::new();
            w_s.push(t0, 0.0);
            w_s.push(t1, tr.link_bps * (t1 - t0));
            let m = empirical_bwfi(&arrivals, &w_i, &w_s, tr.share);
            measured = measured.max(m);
        }
        ratio_max = ratio_max.max(measured / tr.bound_bits);
        if measured > tr.bound_bits + 1.0 {
            over_closed_form += 1;
        }
        checks.check(
            measured <= tr.check_bits + 1.0,
            format!(
                "replica {replica} flow {}: B-WFI {measured:.1} bits within {:.1} (Theorem 1 bound {:.1} plus one packet)",
                tr.flow, tr.check_bits, tr.bound_bits
            ),
        );
    }
    if over_closed_form > 0 {
        println!(
            "note: {over_closed_form} of {} tracked sessions exceed the Theorem 1 closed form (wfi_ratio_max > 1)",
            q.wfi.len()
        );
    }
    (percentile(&q.delays, 0.99) * 1e6, ratio_max, q.delays.len())
}

/// Peak resident set size (`VmHWM`) in bytes.
fn vm_hwm_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2]
}

/// Median wall ns of an empty `run` call (every event up to the current
/// horizon already handled): the per-call walk over all sources.
fn run_call_ns<S: NodeScheduler, O: Observer>(
    net: &mut Network<S, O>,
    horizon: f64,
    calls: usize,
) -> f64 {
    let mut v: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            net.run(horizon);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut v)
}

/// `(name, value, unit)` of one reported metric.
type Metric = (&'static str, f64, &'static str);

/// Run details for the result record: `(key, value)`, the value printed
/// as is (space-separated numbers read back as a list).
type Details = Vec<(String, String)>;

fn detail(details: &mut Details, key: &str, value: impl std::fmt::Display) {
    details.push((key.to_owned(), value.to_string()));
}

/// Builds once with `F`, timing the build (not the input generation).
fn timed_build<F: workloads::Flavor>(w: Workload, seed: u64, span: f64) -> (Built<F>, f64) {
    let inputs = w.inputs(span);
    let t = Instant::now();
    let b = w.build::<F>(seed, inputs);
    (b, t.elapsed().as_secs_f64())
}

/// The timed horizon stayed within the span the sources were built for.
fn span_check(horizon: f64, span: f64, checks: &mut Checks) {
    checks.check(
        horizon <= span,
        format!("horizon {horizon:.1} s within the {span:.0} s the sources cover"),
    );
}

fn common_net_checks<S: NodeScheduler, O: Observer>(
    net: &Network<S, O>,
    tag: &str,
    checks: &mut Checks,
) {
    let cons = net.verify_conservation();
    if let Err(e) = &cons {
        println!("conservation ({tag}): {e}");
    }
    checks.check(
        cons.is_ok(),
        format!("byte conservation on every link ({tag})"),
    );
    checks.check(!net.is_halted(), format!("run not halted ({tag})"));
    checks.check(
        net.command_errors.is_empty(),
        format!("no command errors ({tag})"),
    );
}

fn parallel_checks(agg: &ParAgg, tag: &str, checks: &mut Checks) {
    checks.check(
        agg.fallback.is_none(),
        format!("sharded run did not fall back ({tag}): {:?}", agg.fallback),
    );
    checks.check(
        agg.rollbacks == 0,
        format!("no rollbacks ({tag}): {}", agg.rollbacks),
    );
    checks.check(
        agg.failures == 0,
        format!("no shard failures ({tag}): {}", agg.failures),
    );
}

/// The untraced end-to-end run.
fn end_to_end(a: &Args, checks: &mut Checks, details: &mut Details) -> Vec<Metric> {
    let w = a.workload;
    let span = w.traffic_span(a.seconds);
    // Every build's time goes into one buffer, sized and touched before the
    // first build, so it weighs the same in `peak_rss_mib` however many
    // builds a run makes.
    let mut setup: Vec<f64> = Vec::with_capacity(SETUP_SAMPLES_MAX);
    setup.resize(SETUP_SAMPLES_MAX, 1.0);
    std::hint::black_box(&mut setup);
    setup.clear();
    let t_run = Instant::now();
    let stage = |details: &mut Details, name: &str| {
        detail(details, &format!("stage_end_s.{name}"), t_run.elapsed().as_secs_f64())
    };

    // Check copy: sequential warm-up to the digest horizon.
    let (mut check, s) = timed_build::<Plain>(w, a.seed, span);
    setup.push(s);
    warm_up(
        &mut check.net,
        w,
        Runner::Sequential,
        &mut ParAgg::default(),
    );
    let ref_digest = digest(&check.net.stats);
    common_net_checks(&check.net, "check copy", checks);
    drop(check);
    stage(details, "check_copy");

    // Timed copy.
    let (mut main, s) = timed_build::<Plain>(w, a.seed, span);
    setup.push(s);
    let runner = w.runner();
    let mut agg = ParAgg::default();
    let (h, sim_per_wall) = warm_up(&mut main.net, w, runner, &mut agg);
    let d = digest(&main.net.stats);
    println!("digest {d:016x} (sequential check copy {ref_digest:016x})");
    checks.check(
        d == ref_digest,
        if runner == Runner::Sequential {
            "per-flow SimStats digest repeats for the same seed"
        } else {
            "sharded SimStats digest equals the sequential one"
        },
    );
    if let Some(exp) = a.expect_digest {
        checks.check(
            d == exp,
            format!("digest {d:016x} equals expected {exp:016x}"),
        );
    }
    // Set-up-only builds in short bursts between the timed segments: the
    // host passes through phases in which every build takes up to ~1.8×
    // longer, so samples are spread over the whole run.
    let burst = w.setup_burst();
    let timed = timed_segments(
        &mut main.net,
        runner,
        h,
        sim_per_wall,
        a.seconds,
        TARGET_SEGMENTS,
        &mut agg,
        || {
            // Room is kept for the quality replicas' builds.
            if setup.len() + burst + 64 <= SETUP_SAMPLES_MAX {
                for _ in 0..burst {
                    let (b, s) = timed_build::<Plain>(w, a.seed, span);
                    setup.push(s);
                    drop(b);
                }
            }
        },
    );
    common_net_checks(&main.net, "timed copy", checks);
    span_check(timed.horizon, span, checks);
    if runner != Runner::Sequential {
        parallel_checks(&agg, "timed copy", checks);
    }
    let segs = timed.seg_ns_per_pkt.len();
    checks.check(
        segs >= MIN_SEGMENTS,
        format!("{segs} segments leave >= 10 beyond p90"),
    );
    let call_ns = run_call_ns(&mut main.net, timed.horizon, 5);
    let seg_mean_ns = timed.seg_mean_ns();
    let peak = vm_hwm_bytes();
    let flows = main.flows;
    drop(main);
    stage(details, "timed_copy");

    // Quality replicas, traced from time 0 to the quality horizon. Built after
    // the timed copy is gone, so its peak memory is what `VmHWM` holds;
    // their builds count as set-up samples too.
    let (replicas, hq) = w.quality_plan();
    let mut tracked = Vec::new();
    let mut q = QualityTrace {
        horizon: hq,
        delays: Vec::new(),
        wfi: BTreeMap::new(),
    };
    for r in 0..replicas {
        let (mut b, s) = timed_build::<Plain>(
            w,
            workloads::sub_seed(QUALITY_REFERENCE_SEED, r as u64),
            span,
        );
        setup.push(s);
        for &f in &b.delay_flows {
            b.net.stats.trace_flow(f);
        }
        b.net.run(hq);
        common_net_checks(&b.net, "quality replica", checks);
        let flows = b.delay_flows.clone();
        q.drain(r, &mut b.net.stats, &flows, &b.tracked);
        tracked = b.tracked;
    }

    let (delay_p99_us, wfi_ratio_max, delay_samples) = quality(&q, &tracked, checks);
    stage(details, "quality");
    println!(
        "{}: {} pkts in {:.3} s over {segs} segments; empty run() {:.0} ns = {:.2}% of a segment",
        w.name(),
        timed.pkts,
        timed.wall_s,
        call_ns,
        100.0 * call_ns / seg_mean_ns
    );
    println!(
        "quality: p99 delay {delay_p99_us:.3} us over {delay_samples} records, wfi ratio max {wfi_ratio_max:.4}"
    );
    // The lower decile of every build's time: in the host's slow phases
    // (see above) a median would report the phase, not the program.
    let setup_s = percentile(&setup, SETUP_QUANTILE);
    detail(details, "setup_s_median", median(&mut setup));
    detail(details, "digest", format!("{d:#018x}"));
    detail(details, "segments", segs);
    let seg_ns: Vec<String> = timed
        .seg_ns_per_pkt
        .iter()
        .map(|x| format!("{:.0}", x))
        .collect();
    detail(details, "segment_ns_per_pkt", seg_ns.join(" "));
    detail(details, "timed_packets", timed.pkts);
    detail(details, "timed_horizon_s", timed.horizon);
    detail(details, "setup_builds", setup.len());
    detail(details, "flows", flows);
    detail(details, "run_call_ns", call_ns);
    detail(details, "run_call_share", call_ns / seg_mean_ns);
    detail(details, "delay_samples", delay_samples);
    detail(details, "parallel_epochs", agg.epochs);
    detail(details, "parallel_checkpoints", agg.checkpoints);
    vec![
        ("pkts_per_s", timed.pkts as f64 / timed.wall_s, "pkt/s"),
        ("ns_per_pkt_p50", timed.seg_quantile(0.5), "ns"),
        // Printed, but gated in no bound: across runs it tracks
        // interference from other tenants of the host more than the program.
        ("ns_per_pkt_p90", timed.seg_quantile(0.9), "ns"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mib", peak as f64 / (1024.0 * 1024.0), "MiB"),
        ("sim_delay_p99_us", delay_p99_us, "sim_us"),
        ("wfi_ratio_max", wfi_ratio_max, "ratio"),
    ]
}

/// The traced run: per-layer breakdown.
fn traced(a: &Args, checks: &mut Checks, details: &mut Details) -> Vec<Metric> {
    let w = a.workload;
    let span = w.traffic_span(a.seconds);
    let sharded = w.runner() != Runner::Sequential;
    // The traced copy (and the tandem's sequential copy) rerun the
    // reference's segments, which takes longer than the reference itself.
    let share = 0.4;

    // A: untraced reference under run_parallel (single-link workloads fall
    // back to the sequential loop, and the report says so).
    let (mut refb, _) = timed_build::<Plain>(w, a.seed, span);
    refb.net.set_record_epochs(true);
    let mut agg = ParAgg::default();
    let par = Runner::Parallel(2);
    let (h, spw) = warm_up(&mut refb.net, w, par, &mut agg);
    let ref_digest = digest(&refb.net.stats);
    let mut agg = ParAgg::default();
    let ref_t = timed_segments(
        &mut refb.net,
        par,
        h,
        spw,
        a.seconds * share,
        TRACED_SEGMENTS,
        &mut agg,
        || {},
    );
    common_net_checks(&refb.net, "reference", checks);
    span_check(ref_t.horizon, span, checks);
    if sharded {
        parallel_checks(&agg, "reference", checks);
    }
    let rss = vm_hwm_bytes();
    let mut per_shard = [0u64; 2];
    for e in refb.net.epoch_log() {
        per_shard[e.shard.min(1)] += e.events;
    }
    let imbalance = if agg.epochs == 0 {
        1.0
    } else {
        let mean = (per_shard[0] + per_shard[1]) as f64 / 2.0;
        per_shard[0].max(per_shard[1]) as f64 / mean.max(1.0)
    };
    // A checkpoint of the 1M-flow network peaks at ~5 GiB and takes ~10 s
    // on a 2-core host; that workload takes no checkpoints (one link), so
    // its snapshot is skipped. A network the program refuses to snapshot
    // (TCP sources cannot be saved) has no snapshot cost either. Both read
    // 0 ms, and the details say why.
    let (snap_ms, snap_note) = if w == Workload::Flat1m {
        (0.0, "not applicable: skipped at 2^20 flows".to_owned())
    } else {
        let t = Instant::now();
        let snap = refb.net.snapshot();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match &snap {
            Ok(_) => (ms, "ok".to_owned()),
            Err(e) => (0.0, format!("not applicable: snapshot refused: {}", e.what)),
        }
    };
    println!("snapshot: {snap_ms:.3} ms ({snap_note})");
    let call_ns = run_call_ns(&mut refb.net, ref_t.horizon, 21);
    let seg_mean_ns = ref_t.seg_mean_ns();
    let flows = refb.flows;
    let flow_ids: Vec<u32> = refb.net.stats.flows();
    let tracked: Vec<u32> = refb.tracked.iter().map(|t| t.flow).collect();
    drop(refb);

    // B: the same workload under the sequential loop.
    let seq_ns = if sharded {
        let (mut b, _) = timed_build::<Plain>(w, a.seed, span);
        let mut agg_b = ParAgg::default();
        warm_up(&mut b.net, w, Runner::Sequential, &mut agg_b);
        checks.check(
            digest(&b.net.stats) == ref_digest,
            "sharded SimStats digest equals the sequential one",
        );
        let t = same_segments(
            &mut b.net,
            Runner::Sequential,
            &ref_t.horizons,
            &mut agg_b,
            |_| {},
        );
        common_net_checks(&b.net, "sequential", checks);
        t.ns_per_pkt()
    } else {
        ref_t.ns_per_pkt()
    };

    // C: behind the wrappers, counting allocations in the timed region.
    let (mut tb, _) = timed_build::<Traced>(w, a.seed, span);
    let runner = w.runner();
    let mut agg_c = ParAgg::default();
    warm_up(&mut tb.net, w, runner, &mut agg_c);
    checks.check(
        digest(&tb.net.stats) == ref_digest,
        "traced copy reproduces the untraced digest",
    );
    trace::reset_all();
    for l in 0..tb.net.link_count() {
        *tb.net.observer_of_mut(l) = CountingObserver::default();
    }
    let mut outstanding = Vec::new();
    trace::set_counting(true);
    let tr_t = same_segments(&mut tb.net, runner, &ref_t.horizons, &mut agg_c, |n| {
        outstanding.push(n.outstanding_events() as f64)
    });
    trace::set_counting(false);
    common_net_checks(&tb.net, "traced copy", checks);
    let allocs = trace::allocs_total();
    let obs: CountingObserver =
        (0..tb.net.link_count()).fold(CountingObserver::default(), |acc, l| {
            let o = tb.net.observer_of(l);
            CountingObserver {
                enqueues: acc.enqueues + o.enqueues,
                drops: acc.drops + o.drops,
                tx_completes: acc.tx_completes + o.tx_completes,
                busy_resets: acc.busy_resets + o.busy_resets,
            }
        });
    drop(tb);

    let pkts = tr_t.pkts.max(1) as f64;
    let sched = [
        &trace::SCHED_SELECT,
        &trace::SCHED_BACKLOG,
        &trace::SCHED_REQUEUE,
        &trace::SCHED_HINT,
    ];
    let sched_calls: u64 = sched.iter().map(|s| s.count()).sum();
    let sched_ns: u64 = sched.iter().map(|s| s.total_ns()).sum();
    let srcs = [&trace::SRC_START, &trace::SRC_WAKE, &trace::SRC_DELIVERED];
    let src_calls: u64 = srcs.iter().map(|s| s.count()).sum();
    let src_ns: u64 = srcs.iter().map(|s| s.total_ns()).sum();
    let arrivals = (obs.enqueues + obs.drops).saturating_sub(trace::SRC_PACKETS.get());
    let events =
        trace::SRC_WAKE.count() + trace::SRC_DELIVERED.count() + obs.tx_completes + arrivals;
    let outstanding_mean = outstanding.iter().sum::<f64>() / outstanding.len().max(1) as f64;
    let traced_ns = tr_t.ns_per_pkt();
    for s in trace::ALL_SPANS {
        println!(
            "span {:<22} count {:>12} mean {:>9.1} ns  p50<= {:>7} ns  p99<= {:>9} ns",
            s.name,
            s.count(),
            s.mean_ns(),
            s.quantile_upper_ns(0.5),
            s.quantile_upper_ns(0.99)
        );
    }
    println!(
        "observer: enqueues {} drops {} tx_completes {} busy_resets {}; wrapper-detected resets {}",
        obs.enqueues,
        obs.drops,
        obs.tx_completes,
        obs.busy_resets,
        trace::SCHED_RESET_REQUEUE.count()
    );

    // D: standalone layer replays at the workload's scale.
    let replay_s = 0.5;
    let iso_ns = replay::hierarchy_isolated_ns(w, replay_s);
    let hold_ns = replay::event_hold_ns(outstanding_mean.round() as usize, replay_s, a.seed);
    let stats_ns = replay::stats_replay_ns(&flow_ids, &tracked, replay_s, a.seed);

    println!(
        "parallel: fallback {:?}, epochs {}, checkpoints {}, rollbacks {}",
        agg.fallback, agg.epochs, agg.checkpoints, agg.rollbacks
    );
    println!(
        "empty run() {call_ns:.0} ns = {:.2}% of a reference segment",
        100.0 * call_ns / seg_mean_ns
    );
    detail(details, "reference_ns_per_pkt", ref_t.ns_per_pkt());
    detail(details, "traced_ns_per_pkt", traced_ns);
    detail(details, "traced_packets", tr_t.pkts);
    detail(details, "fallback", format!("{:?}", agg.fallback));
    detail(details, "snapshot", snap_note);

    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    vec![
        ("sched.select_ns", trace::SCHED_SELECT.mean_ns(), "ns"),
        ("sched.backlog_ns", trace::SCHED_BACKLOG.mean_ns(), "ns"),
        ("sched.requeue_ns", trace::SCHED_REQUEUE.mean_ns(), "ns"),
        ("sched.hint_ns", trace::SCHED_HINT.mean_ns(), "ns"),
        (
            "sched.reset_requeue_ns",
            trace::SCHED_RESET_REQUEUE.mean_ns(),
            "ns",
        ),
        ("sched.calls_per_pkt", sched_calls as f64 / pkts, "count"),
        ("sched.ns_per_pkt", sched_ns as f64 / pkts, "ns"),
        (
            "sched.busy_resets_per_kpkt",
            obs.busy_resets as f64 * 1e3 / pkts,
            "count",
        ),
        ("hierarchy.isolated_ns_per_pkt", iso_ns, "ns"),
        (
            "network.engine_over_dispatch",
            ratio(ref_t.seg_quantile(0.5), iso_ns),
            "ratio",
        ),
        ("sources.ns_per_pkt", src_ns as f64 / pkts, "ns"),
        ("sources.calls_per_pkt", src_calls as f64 / pkts, "count"),
        (
            "sources.allocs_per_call",
            ratio(trace::SRC_ALLOCS.get() as f64, src_calls as f64),
            "count",
        ),
        (
            "sources.allocs_per_wake",
            ratio(
                trace::SRC_WAKE_ALLOCS.get() as f64,
                trace::SRC_WAKE.count() as f64,
            ),
            "count",
        ),
        ("events.per_pkt", events as f64 / pkts, "count"),
        ("events.outstanding_mean", outstanding_mean, "count"),
        ("events.hold_ns", hold_ns, "ns"),
        ("stats.replay_ns_per_pkt", stats_ns, "ns"),
        (
            "network.self_ns_per_pkt",
            traced_ns - (sched_ns + src_ns) as f64 / pkts,
            "ns",
        ),
        ("network.run_call_ns", call_ns, "ns"),
        ("network.run_call_share", call_ns / seg_mean_ns, "ratio"),
        ("alloc.per_pkt", allocs as f64 / pkts, "count"),
        ("alloc.rss_bytes_per_flow", rss as f64 / flows as f64, "B"),
        ("parallel.seq_ns_per_pkt", seq_ns, "ns"),
        (
            "parallel.speedup",
            ratio(seq_ns, ref_t.ns_per_pkt()),
            "ratio",
        ),
        ("parallel.epochs", agg.epochs as f64, "count"),
        (
            "parallel.pkts_per_epoch",
            ratio(ref_t.pkts as f64, agg.epochs as f64),
            "count",
        ),
        ("parallel.checkpoints", agg.checkpoints as f64, "count"),
        ("parallel.shard_event_imbalance", imbalance, "ratio"),
        ("snapshot.ms", snap_ms, "ms"),
        (
            "snapshot.share",
            snap_ms * 1e-3 * agg.checkpoints as f64 / ref_t.wall_s,
            "ratio",
        ),
        (
            "trace.overhead_frac",
            (traced_ns - ref_t.ns_per_pkt()) / ref_t.ns_per_pkt(),
            "ratio",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpfq-perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads available {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut checks = Checks::default();
    let mut details = Vec::new();
    let metrics = if args.trace {
        traced(&args, &mut checks, &mut details)
    } else {
        end_to_end(&args, &mut checks, &mut details)
    };
    for (key, value) in &details {
        println!("detail {key} {value}");
    }
    for &(name, v, unit) in &metrics {
        // `{v}` prints every digit the value has.
        println!("metric {name} {v} {unit}");
        checks.check(v.is_finite(), format!("metric {name} is finite"));
    }
    let failed = checks.failed.len() as u64;
    println!(
        "metric check_fail_frac {} ratio",
        failed as f64 / checks.attempted.max(1) as f64
    );
    println!("checks {} {}", checks.attempted, failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
