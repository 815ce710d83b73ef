//! Tracing from outside the program: wrappers that time calls into each
//! layer's public API, a counting observer, and a counting global
//! allocator. Spans are aggregated in memory per layer name (count, total,
//! log2 histogram) and read out when the run ends.
//!
//! Everything here is used only by the traced run; the untraced run builds
//! the plain types and pays one relaxed load per allocation for the
//! allocator's off switch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use hpfq_core::{MixedScheduler, NodeScheduler, Packet, SessionId};
use hpfq_obs::snap::{SnapError, Value};
use hpfq_obs::{BusyResetEvent, DropEvent, EnqueueEvent, Observer, TxEvent};
use hpfq_sim::{Source, SourceOutput};

/// Aggregate of one span name: call count, total self time, and a
/// power-of-two histogram of durations. Atomics because the sharded
/// workload drives wrappers from two worker threads; every counter is a
/// statistic that publishes no other data, hence `Relaxed`.
pub struct Span {
    pub name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    hist: [AtomicU64; 40],
}

impl Span {
    pub const fn new(name: &'static str) -> Self {
        Span {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            hist: [const { AtomicU64::new(0) }; 40],
        }
    }

    #[inline]
    pub fn record(&self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize).min(self.hist.len() - 1);
        self.hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns() as f64 / n as f64
        }
    }

    /// Upper edge (ns) of the histogram bucket holding quantile `q`.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, c) in self.hist.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        u64::MAX
    }

    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        for h in &self.hist {
            h.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain event counter (no timing).
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

pub static SCHED_SELECT: Span = Span::new("sched.select");
pub static SCHED_BACKLOG: Span = Span::new("sched.backlog");
pub static SCHED_REQUEUE: Span = Span::new("sched.requeue");
pub static SCHED_HINT: Span = Span::new("sched.hint");
/// The subset of `sched.requeue` calls that emptied their scheduler and
/// so carried the busy-period reset.
pub static SCHED_RESET_REQUEUE: Span = Span::new("sched.reset_requeue");
pub static SRC_START: Span = Span::new("sources.start");
pub static SRC_WAKE: Span = Span::new("sources.wake");
pub static SRC_DELIVERED: Span = Span::new("sources.delivered");
/// Packets the sources emitted (ingress offers).
pub static SRC_PACKETS: Counter = Counter::new();
/// Heap allocations made inside source calls, and inside `on_wake` alone.
pub static SRC_ALLOCS: Counter = Counter::new();
pub static SRC_WAKE_ALLOCS: Counter = Counter::new();

pub static ALL_SPANS: [&Span; 8] = [
    &SCHED_SELECT,
    &SCHED_BACKLOG,
    &SCHED_REQUEUE,
    &SCHED_HINT,
    &SCHED_RESET_REQUEUE,
    &SRC_START,
    &SRC_WAKE,
    &SRC_DELIVERED,
];

pub fn reset_all() {
    for s in ALL_SPANS {
        s.reset();
    }
    SRC_PACKETS.reset();
    SRC_ALLOCS.reset();
    SRC_WAKE_ALLOCS.reset();
    ALLOCS.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counting global allocator.

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations while [`set_counting`] is
/// on: a process-wide total plus a per-thread tally that source wrappers
/// difference around each call.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and a const-initialised thread-local `Cell` (no allocation,
// no destructor), so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: forwarded verbatim; `ptr`/`layout` came from this
        // allocator, which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` was allocated by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

pub fn allocs_total() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[inline]
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Layer wrappers.

/// `NodeScheduler` wrapper timing the four per-packet entry points.
pub struct TracedSched(pub MixedScheduler);

impl NodeScheduler for TracedSched {
    fn rate_bps(&self) -> f64 {
        self.0.rate_bps()
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.0.add_session(phi)
    }

    #[inline]
    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        let t = Instant::now();
        self.0.backlog(id, head_bits, ref_now);
        SCHED_BACKLOG.record(t);
    }

    #[inline]
    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        let t = Instant::now();
        self.0.arrival_hint(id, bits, ref_now);
        SCHED_HINT.record(t);
    }

    #[inline]
    fn select_next(&mut self) -> Option<SessionId> {
        let t = Instant::now();
        let r = self.0.select_next();
        SCHED_SELECT.record(t);
        r
    }

    #[inline]
    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        let t = Instant::now();
        self.0.requeue(id, next_head_bits);
        SCHED_REQUEUE.record(t);
        if next_head_bits.is_none() && self.0.backlogged() == 0 {
            SCHED_RESET_REQUEUE.record(t);
        }
    }

    fn backlogged(&self) -> usize {
        self.0.backlogged()
    }

    fn virtual_time(&self) -> f64 {
        self.0.virtual_time()
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.0.phi(id)
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        self.0.tags(id)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn set_is_root(&mut self, is_root: bool) {
        self.0.set_is_root(is_root);
    }

    fn set_dispatch_batch(&mut self, k: usize) {
        self.0.set_dispatch_batch(k);
    }

    fn save_state(&self) -> Value {
        self.0.save_state()
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        self.0.load_state(state)
    }
}

/// `Source` wrapper timing every callback and counting the allocations
/// made inside it.
pub struct TracedSource<S>(pub S);

impl<S: Source> TracedSource<S> {
    /// Runs one callback as a `span`, returning its output and the
    /// allocations made inside it.
    #[inline]
    fn timed(span: &Span, f: impl FnOnce() -> SourceOutput) -> (SourceOutput, u64) {
        let a0 = thread_allocs();
        let t = Instant::now();
        let out = f();
        span.record(t);
        let allocs = thread_allocs() - a0;
        SRC_ALLOCS.add(allocs);
        SRC_PACKETS.add(out.packets.len() as u64);
        (out, allocs)
    }
}

impl<S: Source> Source for TracedSource<S> {
    fn start(&mut self) -> SourceOutput {
        Self::timed(&SRC_START, || self.0.start()).0
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        let (out, allocs) = Self::timed(&SRC_WAKE, || self.0.on_wake(now));
        SRC_WAKE_ALLOCS.add(allocs);
        out
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        Self::timed(&SRC_DELIVERED, || self.0.on_delivered(now, pkt)).0
    }

    fn label(&self) -> String {
        self.0.label()
    }

    fn save_state(&self) -> Result<Value, SnapError> {
        self.0.save_state()
    }
}

/// Per-link event counts. Each link's hierarchy owns one, so no sharing.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingObserver {
    pub enqueues: u64,
    pub drops: u64,
    pub tx_completes: u64,
    pub busy_resets: u64,
}

impl Observer for CountingObserver {
    fn on_enqueue(&mut self, _e: &EnqueueEvent) {
        self.enqueues += 1;
    }

    fn on_drop(&mut self, _e: &DropEvent) {
        self.drops += 1;
    }

    fn on_tx_complete(&mut self, _e: &TxEvent) {
        self.tx_completes += 1;
    }

    fn on_busy_reset(&mut self, _e: &BusyResetEvent) {
        self.busy_resets += 1;
    }
}
