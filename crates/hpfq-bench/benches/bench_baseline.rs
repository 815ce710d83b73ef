//! The committed perf baseline: steady-state enqueue and dispatch cost of
//! a `Hierarchy` per scheduling policy, at depth 1 and depth 3 (64 leaves
//! either way, so the numbers isolate tree depth, not leaf count).
//!
//! * `dispatch` — one full dequeue (RESET-PATH + RESTART-NODE chain) plus
//!   the replenishing enqueue that keeps the tree saturated. This is the
//!   per-packet server cost.
//! * `enqueue` — one arrival into an already-backlogged leaf (FIFO append
//!   plus `arrival_hint` to every ancestor). Queues grow during
//!   measurement; the amortized `VecDeque` growth is part of the real
//!   arrival cost.
//!
//! A second axis — the **flow-count scaling sweep** (`--sizes
//! 64,1k,16k,256k,1m,4m`, `k` = ×1024, `m` = ×1024²) — measures the same
//! two operations on flat WF²Q+ trees of growing width, once per eligible
//! set backend (dual heap, calendar). Dispatch cost is dominated by the
//! eligible set: the heap rows must grow sub-linearly (O(log N)), the
//! calendar rows near-flat (amortized O(1)); the committed baseline pins
//! both curves. `--eligible <dual-heap|calendar>` restricts the sweep to
//! one backend for targeted runs.
//!
//! Every node runs the PIFO substrate (`SchedulerKind::build_on`). Rows on
//! the default dual heap end in `/pifo`; `bench_compare` gates each of
//! them against the hand-rolled `<name>` row that the committed baseline
//! still holds from when those implementations were benchmarked.
//!
//! Output: aligned rows on stdout, plus `--json <path>` for the
//! machine-readable form committed as `results/bench_baseline.json`.
//! `--smoke` switches to the fast CI profile (same code, noisier numbers).

use hpfq_bench::microbench::{
    json_path_from_args, sizes_from_args, time_op_profile, write_json, BenchRecord, MetaValue,
    Profile,
};
use hpfq_core::pifo::rank::DrrRank;
use hpfq_core::{
    CalendarEligibleSet, DualHeapEligibleSet, Hierarchy, MixedScheduler, NodeId, Packet,
    PifoBackend, PifoTree, SchedulerKind,
};
use hpfq_obs::SpanKind;
use hpfq_sim::{CbrSource, Network, Route};

/// Which eligible-set structure backs the PIFO substrate at every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The lazy dual heap — the default `SchedulerKind::build` ships.
    DualHeap,
    /// The hierarchical calendar queue.
    Calendar,
}

impl Backend {
    const ALL: [Backend; 2] = [Backend::DualHeap, Backend::Calendar];

    /// Row-name suffix: default rows append `/pifo` (bench_compare also
    /// gates each `<name>/pifo` row against the committed hand-rolled
    /// `<name>` row), the calendar appends `/pifo-calendar`.
    fn suffix(self) -> &'static str {
        match self {
            Backend::DualHeap => "/pifo",
            Backend::Calendar => "/pifo-calendar",
        }
    }

    /// Ns per dispatch on this backend (see [`bench_dispatch`]).
    fn dispatch_ns(
        self,
        kind: SchedulerKind,
        depth: u32,
        fanout: usize,
        profile: Profile,
        drr_base: Option<f64>,
    ) -> f64 {
        match self {
            Backend::DualHeap => {
                bench_dispatch::<DualHeapEligibleSet>(kind, depth, fanout, profile, drr_base)
            }
            Backend::Calendar => {
                bench_dispatch::<CalendarEligibleSet>(kind, depth, fanout, profile, drr_base)
            }
        }
    }

    /// Ns per arrival on this backend (see [`bench_enqueue`]).
    fn enqueue_ns(self, kind: SchedulerKind, depth: u32, fanout: usize, profile: Profile) -> f64 {
        match self {
            Backend::DualHeap => bench_enqueue::<DualHeapEligibleSet>(kind, depth, fanout, profile),
            Backend::Calendar => bench_enqueue::<CalendarEligibleSet>(kind, depth, fanout, profile),
        }
    }
}

/// Parses `--eligible <dual-heap|calendar>`: restricts the scaling sweep
/// to one backend (the depth-shape rows always run the dual-heap default,
/// which is what ships).
fn eligible_from_args(args: &[String]) -> Option<Backend> {
    let pos = args.iter().position(|a| a == "--eligible")?;
    let v = args.get(pos + 1).expect("--eligible requires a value");
    match v.as_str() {
        "dual-heap" | "dualheap" | "dual_heap" | "heap" => Some(Backend::DualHeap),
        "calendar" | "cal" => Some(Backend::Calendar),
        other => panic!("--eligible: unknown eligible backend '{other}'"),
    }
}

const LEAVES: usize = 64;
/// `(label, depth, fanout)`: fanout^depth == LEAVES for both shapes.
const SHAPES: [(&str, u32, usize); 2] = [("depth1", 1, 64), ("depth3", 3, 4)];
/// Default flow-count sweep (overridable via `--sizes`).
const DEFAULT_SIZES: [u32; 6] = [64, 1024, 16384, 262144, 1_048_576, 4_194_304];

/// Builds a uniform `depth`-level tree of `fanout^depth` leaves running
/// `kind` at every node, on the PIFO substrate over the backend `B`.
///
/// DRR nodes run at the policy's designed operating point unless
/// `drr_base` overrides it: a per-session quantum of one MTU (12 kbit).
/// Shreedhar & Varghese's O(1)-per-packet bound holds only for quantum >=
/// max packet size; the crate's default `quantum_base` (12 kbit *shared
/// across `fanout` sessions*) puts every bench packet ~64 quanta deep, so
/// each dispatch degenerates to ~64 ring rotations. That regime is a
/// rotation-loop stress test, not a dispatch-rate measurement — the
/// ungated `stress` rows keep it visible.
fn build<B: PifoBackend>(
    kind: SchedulerKind,
    depth: u32,
    fanout: usize,
    drr_base: Option<f64>,
) -> (Hierarchy<MixedScheduler<B>>, Vec<NodeId>) {
    let drr_base = drr_base.unwrap_or(12_000.0 * fanout as f64);
    let mut bld = Hierarchy::builder(1e9, move |rate| match kind {
        SchedulerKind::Drr => MixedScheduler::Drr(PifoTree::with_backend(
            rate,
            DrrRank::with_quantum_base(drr_base),
        )),
        _ => kind.build_on::<B>(rate),
    });
    let mut parents = vec![bld.root()];
    for _ in 1..depth {
        let mut next = Vec::new();
        for &p in &parents {
            for _ in 0..fanout {
                next.push(bld.add_internal(p, 1.0 / fanout as f64).unwrap());
            }
        }
        parents = next;
    }
    let mut leaves = Vec::new();
    for &p in &parents {
        for _ in 0..fanout {
            leaves.push(bld.add_leaf(p, 1.0 / fanout as f64).unwrap());
        }
    }
    assert_eq!(leaves.len(), fanout.pow(depth));
    (bld.build(), leaves)
}

/// Ns per dispatch: every leaf starts two deep; each op transmits one
/// packet and replenishes the drained leaf. Dispatch rows are *gated*
/// (bench_compare --deny), so the full profile reports the best of three
/// batch medians — medians alone still wander double-digit percent on a
/// shared single-vCPU runner, and the minimum is the standard
/// noise-robust estimator for tight loops.
fn bench_dispatch<B: PifoBackend>(
    kind: SchedulerKind,
    depth: u32,
    fanout: usize,
    profile: Profile,
    drr_base: Option<f64>,
) -> f64 {
    let (mut h, leaves) = build::<B>(kind, depth, fanout, drr_base);
    let mut id = 0u64;
    for &leaf in &leaves {
        for _ in 0..2 {
            id += 1;
            h.enqueue(leaf, Packet::new(id, leaf.0 as u32, 1500, 0.0));
        }
    }
    let reps = match profile {
        Profile::Full => 3,
        Profile::Smoke => 1,
    };
    let mut ns = f64::INFINITY;
    for _ in 0..reps {
        let sample = time_op_profile(
            || {
                let pkt = h.dequeue().expect("backlogged");
                id += 1;
                h.enqueue(
                    NodeId(pkt.flow as usize),
                    Packet::new(id, pkt.flow, 1500, 0.0),
                );
                pkt.id
            },
            profile,
        );
        ns = ns.min(sample);
    }
    while h.dequeue().is_some() {}
    ns
}

/// Median ns per arrival into a backlogged leaf (round-robin over leaves).
fn bench_enqueue<B: PifoBackend>(
    kind: SchedulerKind,
    depth: u32,
    fanout: usize,
    profile: Profile,
) -> f64 {
    let (mut h, leaves) = build::<B>(kind, depth, fanout, None);
    let mut id = 0u64;
    for &leaf in &leaves {
        id += 1;
        h.enqueue(leaf, Packet::new(id, leaf.0 as u32, 1500, 0.0));
    }
    let mut i = 0usize;
    let ns = time_op_profile(
        || {
            let leaf = leaves[i];
            i = (i + 1) % leaves.len();
            id += 1;
            h.enqueue(leaf, Packet::new(id, leaf.0 as u32, 1500, 0.0));
            id
        },
        profile,
    );
    while h.dequeue().is_some() {}
    ns
}

/// Drives a 64-flow single-link network through the real event engine and
/// reports wall-clock ns per served packet, plus — when built with
/// `--features profile` — the per-phase span breakdown (`group:"phase"`
/// rows; the snapshot is empty otherwise, so profile-off baselines are
/// byte-compatible with earlier ones apart from the one new `engine` row).
fn bench_engine(profile: Profile, records: &mut Vec<BenchRecord>) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler>::builder(1e9, move |r| kind.build(r));
    let root = bld.root();
    let leaves: Vec<NodeId> = (0..LEAVES)
        .map(|_| bld.add_leaf(root, 1.0 / LEAVES as f64).unwrap())
        .collect();
    let mut net: Network<MixedScheduler> = Network::new();
    net.add_link(bld.build());
    for (i, &leaf) in leaves.iter().enumerate() {
        let flow = i as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, 1000, 1e6, 0.0, f64::INFINITY),
            Route::new(vec![hpfq_sim::Hop {
                link: 0,
                leaf,
                buffer_bytes: Some(64_000),
                prop_delay: 0.0,
            }]),
        );
    }
    let horizon = match profile {
        Profile::Full => 2.0,
        Profile::Smoke => 0.25,
    };
    let t = std::time::Instant::now();
    net.run(horizon);
    let wall = t.elapsed().as_secs_f64();
    net.verify_conservation().unwrap();
    let packets = net.stats.total_packets;
    assert!(packets > 0);
    records.push(BenchRecord::reported(
        "engine",
        "wf2q+/net",
        LEAVES,
        wall * 1e9 / packets as f64,
    ));
    let spans = net.span_snapshot();
    for kind in SpanKind::ALL {
        let s = spans.get(kind);
        if s.count == 0 {
            continue;
        }
        records.push(BenchRecord::reported(
            "phase",
            &format!("wf2q+/net/{kind}"),
            LEAVES,
            s.mean_ns() as f64,
        ));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = Profile::from_args(&args);
    let json = json_path_from_args(&args);
    let sizes = sizes_from_args(&args).unwrap_or_else(|| DEFAULT_SIZES.to_vec());
    let eligible = eligible_from_args(&args);

    let mut records = Vec::new();
    println!(
        "== bench_baseline ({} profile): {LEAVES} leaves ==",
        profile.as_str()
    );
    for (label, depth, fanout) in SHAPES {
        for kind in SchedulerKind::ALL {
            let backend = Backend::DualHeap;
            let name = format!("{}/{label}{}", kind.name(), backend.suffix());
            let ns = backend.dispatch_ns(kind, depth, fanout, profile, None);
            records.push(BenchRecord::reported("dispatch", &name, LEAVES, ns));
            let ns = backend.enqueue_ns(kind, depth, fanout, profile);
            records.push(BenchRecord::reported("enqueue", &name, LEAVES, ns));
        }
    }

    // Flow-count scaling sweep: flat WF²Q+ trees of growing width, one
    // row family per eligible-set backend. The heap rows pin the O(log N)
    // trajectory; the calendar rows pin the amortized-O(1) one. The sweep
    // — not any single point — is the committed artifact.
    println!("== scaling sweep (wf2q+, flat): sizes {:?} ==", sizes);
    let kind = SchedulerKind::Wf2qPlus;
    let backends: Vec<Backend> = match eligible {
        Some(b) => vec![b],
        None => Backend::ALL.to_vec(),
    };
    for &size in &sizes {
        for &backend in &backends {
            let name = format!("wf2q+/scale{}", backend.suffix());
            let ns = backend.dispatch_ns(kind, 1, size as usize, profile, None);
            records.push(BenchRecord::reported("dispatch", &name, size as usize, ns));
            let ns = backend.enqueue_ns(kind, 1, size as usize, profile);
            records.push(BenchRecord::reported("enqueue", &name, size as usize, ns));
        }
    }

    // Sub-MTU-quantum DRR stress rows: the crate's default quantum base
    // shared across 64 flows gives 187.5-bit quanta vs 12-kbit packets, so
    // every dispatch pays ~64 ring rotations. Useful for watching the
    // rotation loop; deliberately NOT in the gated `dispatch` group (see
    // `build` docs).
    println!("== stress: sub-MTU-quantum drr ==");
    let backend = Backend::DualHeap;
    let name = format!("drr/subquantum{}", backend.suffix());
    let ns = backend.dispatch_ns(SchedulerKind::Drr, 1, LEAVES, profile, Some(12_000.0));
    records.push(BenchRecord::reported("stress", &name, LEAVES, ns));

    // Event-engine section: wall clock through the full Network loop (and,
    // with `--features profile`, the per-phase span breakdown).
    println!("== engine: 64-flow single-link network ==");
    bench_engine(profile, &mut records);

    if let Some(path) = json {
        write_json(
            &path,
            &[
                ("profile", MetaValue::Str(profile.as_str())),
                ("leaves", MetaValue::U64(LEAVES as u64)),
                ("sizes", MetaValue::U32List(&sizes)),
            ],
            &records,
        );
    }
}
