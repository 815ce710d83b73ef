//! The Reno sender/receiver state machine.
//!
//! Sequence numbers are in segments (MSS units), 0-based. A data packet for
//! segment `s` carries id `(flow << 40) | s`; retransmissions reuse the id.
//! The receiver half of the connection lives inside the same [`TcpSource`]:
//! [`Source::on_delivered`] is the segment reaching the receiver, which
//! responds with a cumulative ACK that the sender processes `ack_delay`
//! seconds later (ideal, uncongested return path).

use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

use hpfq_core::{vtime, Packet};
use hpfq_sim::{Source, SourceOutput};

/// Configuration for a [`TcpSource`].
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Segment size in bytes (every data packet has this size).
    pub mss_bytes: u32,
    /// One-way delay of the ACK return path, seconds. The full
    /// no-queueing RTT is `delivery_delay + ack_delay`.
    pub ack_delay: f64,
    /// Connection start time.
    pub start_time: f64,
    /// Time after which no new data is sent.
    pub stop_time: f64,
    /// Initial slow-start threshold in segments.
    pub init_ssthresh: f64,
    /// Receiver window (cap on cwnd) in segments.
    pub rcv_window: f64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_bytes: 1024,
            ack_delay: 0.005,
            start_time: 0.0,
            stop_time: f64::INFINITY,
            init_ssthresh: 64.0,
            rcv_window: 128.0,
        }
    }
}

const SEQ_MASK: u64 = 0xFF_FFFF_FFFF;

fn seg_id(flow: u32, seq: u64) -> u64 {
    (u64::from(flow) << 40) | (seq & SEQ_MASK)
}

/// Shared `(time, cwnd-in-segments)` sample buffer returned by
/// [`TcpSource::cwnd_trace_handle`].
pub type CwndTrace = Arc<Mutex<Vec<(f64, f64)>>>;

/// A greedy (always has data) TCP Reno connection.
#[derive(Debug)]
pub struct TcpSource {
    flow: u32,
    cfg: TcpConfig,

    // --- sender ---
    /// Congestion window, in segments (fractional during CA growth).
    cwnd: f64,
    ssthresh: f64,
    /// Next never-before-sent segment.
    next_seq: u64,
    /// All segments below this are cumulatively acknowledged.
    snd_una: u64,
    dup_acks: u32,
    /// `Some(recover)` while in fast recovery; exits on an ACK ≥ `recover`.
    recovery: Option<u64>,
    /// Retransmission queued by fast retransmit/timeout, sent before new
    /// data.
    rtx_pending: Option<u64>,

    // --- RTO estimation (Jacobson/Karels) ---
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    /// Send time of the segment being timed (Karn's rule: only one sample
    /// in flight, never a retransmission).
    rtt_probe: Option<(u64, f64)>,
    /// Current retransmission deadline (soft timer).
    rto_deadline: Option<f64>,

    // --- receiver ---
    rcv_next: u64,
    out_of_order: BTreeSet<u64>,

    // --- ACK channel back to the sender ---
    pending_acks: VecDeque<(f64, u64)>,

    /// Optional externally readable `(time, cwnd)` trace.
    cwnd_trace: Option<CwndTrace>,

    /// Diagnostics.
    retransmits: u64,
    timeouts: u64,
}

impl TcpSource {
    /// Creates a greedy Reno connection with flow id `flow`.
    pub fn new(flow: u32, cfg: TcpConfig) -> Self {
        assert!(cfg.mss_bytes > 0 && cfg.ack_delay >= 0.0);
        TcpSource {
            flow,
            cfg,
            cwnd: 1.0,
            ssthresh: cfg.init_ssthresh,
            next_seq: 0,
            snd_una: 0,
            dup_acks: 0,
            recovery: None,
            rtx_pending: None,
            srtt: None,
            rttvar: 0.0,
            rto: 1.0,
            rtt_probe: None,
            rto_deadline: None,
            rcv_next: 0,
            out_of_order: BTreeSet::new(),
            pending_acks: VecDeque::new(),
            cwnd_trace: None,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// Returns a handle that will accumulate `(time, cwnd-in-segments)`
    /// samples as the connection runs; call before moving the source into
    /// the simulation.
    pub fn cwnd_trace_handle(&mut self) -> CwndTrace {
        let h = Arc::new(Mutex::new(Vec::new()));
        self.cwnd_trace = Some(Arc::clone(&h));
        h
    }

    /// Segments retransmitted so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn sample_cwnd(&self, now: f64) {
        if let Some(tr) = &self.cwnd_trace {
            // Poison-tolerant: a panicked reader cannot lose us samples.
            tr.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((now, self.cwnd));
        }
    }

    fn effective_window(&self) -> f64 {
        self.cwnd.min(self.cfg.rcv_window)
    }

    /// Emits the retransmission (if any) and as much new data as the window
    /// allows, arming the RTO timer.
    fn pump(&mut self, now: f64, out: &mut SourceOutput) {
        if let Some(seq) = self.rtx_pending.take() {
            out.packets.push(self.make_segment(seq, now));
            self.retransmits += 1;
        }
        if now < self.cfg.stop_time {
            let window = self.effective_window();
            while (self.next_seq - self.snd_una) as f64 + 1.0 <= window {
                let seq = self.next_seq;
                self.next_seq += 1;
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((seq, now));
                }
                out.packets.push(self.make_segment(seq, now));
            }
        }
        // Arm/refresh the soft RTO timer while data is in flight.
        if self.snd_una < self.next_seq {
            let deadline = now + self.rto;
            if self.rto_deadline.is_none_or(|d| vtime::approx_le(d, now)) {
                self.rto_deadline = Some(deadline);
                out.wakes.push(deadline);
            } else {
                // Timer already armed; just push the deadline (the armed
                // wake will re-check and re-arm).
                // lint:allow(L002): the armed branch implies rto_deadline is Some
                self.rto_deadline = Some(deadline.max(self.rto_deadline.unwrap()));
            }
        } else {
            self.rto_deadline = None;
        }
    }

    fn make_segment(&self, seq: u64, now: f64) -> Packet {
        Packet::new(seg_id(self.flow, seq), self.flow, self.cfg.mss_bytes, now)
    }

    fn on_rtt_sample(&mut self, rtt: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2.0;
            }
            Some(srtt) => {
                let err = rtt - srtt;
                self.rttvar = 0.75 * self.rttvar + 0.25 * err.abs();
                self.srtt = Some(srtt + 0.125 * err);
            }
        }
        // lint:allow(L002): both match arms above set srtt to Some
        self.rto = (self.srtt.unwrap() + 4.0 * self.rttvar).max(0.2);
    }

    /// Processes one cumulative ACK (receiver's `rcv_next` value).
    fn process_ack(&mut self, now: f64, ack: u64, out: &mut SourceOutput) {
        if ack > self.snd_una {
            // New data acknowledged.
            if let Some((seq, sent_at)) = self.rtt_probe {
                if ack > seq {
                    self.on_rtt_sample(now - sent_at);
                    self.rtt_probe = None;
                }
            }
            self.snd_una = ack;
            self.dup_acks = 0;
            match self.recovery {
                Some(recover) if ack < recover => {
                    // Partial ACK (NewReno flavour): retransmit the next
                    // hole, keep the window deflated.
                    self.rtx_pending = Some(ack);
                    self.cwnd = self.ssthresh;
                }
                Some(_) => {
                    self.recovery = None;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    if self.cwnd < self.ssthresh {
                        self.cwnd += 1.0; // slow start
                    } else {
                        self.cwnd += 1.0 / self.cwnd; // congestion avoidance
                    }
                    self.cwnd = self.cwnd.min(self.cfg.rcv_window);
                }
            }
            // Fresh RTO for remaining flight.
            self.rto_deadline = self.rto_deadline.map(|_| now + self.rto);
        } else if self.snd_una < self.next_seq {
            // Duplicate ACK while data is in flight.
            self.dup_acks += 1;
            if self.recovery.is_some() {
                // Window inflation during recovery.
                self.cwnd += 1.0;
            } else if self.dup_acks == 3 {
                // Fast retransmit + fast recovery.
                let flight = (self.next_seq - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.recovery = Some(self.next_seq);
                self.rtx_pending = Some(self.snd_una);
                // Karn: abandon any outstanding RTT probe.
                self.rtt_probe = None;
            }
        }
        self.sample_cwnd(now);
        self.pump(now, out);
    }

    fn on_timeout(&mut self, now: f64, out: &mut SourceOutput) {
        self.timeouts += 1;
        let flight = (self.next_seq - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.recovery = None;
        self.rtx_pending = Some(self.snd_una);
        self.rtt_probe = None;
        self.rto = (self.rto * 2.0).min(60.0); // exponential backoff
        self.sample_cwnd(now);
        self.pump(now, out);
    }
}

impl Source for TcpSource {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(self.cfg.start_time)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        let mut out = SourceOutput::none();
        // 1. Deliver any ACKs whose return-path delay has elapsed.
        let mut acked = false;
        while let Some(&(t, ack)) = self.pending_acks.front() {
            if vtime::approx_le(t, now) {
                self.pending_acks.pop_front();
                self.process_ack(now, ack, &mut out);
                acked = true;
            } else {
                break;
            }
        }
        // 2. Retransmission timeout (soft timer).
        if !acked {
            if let Some(deadline) = self.rto_deadline {
                if vtime::approx_ge(now, deadline) && self.snd_una < self.next_seq {
                    self.on_timeout(now, &mut out);
                } else if vtime::approx_ge(now, deadline) {
                    self.rto_deadline = None;
                } else {
                    // Deadline was pushed forward; re-arm.
                    out.wakes.push(deadline);
                }
            }
        }
        // 3. Initial open / start of data.
        if self.next_seq == 0 && now >= self.cfg.start_time && now < self.cfg.stop_time {
            self.sample_cwnd(now);
            self.pump(now, &mut out);
        }
        out
    }

    fn on_delivered(&mut self, now: f64, pkt: &Packet) -> SourceOutput {
        // Receiver side: cumulative ACK generation.
        let seq = pkt.id & SEQ_MASK;
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.out_of_order.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.out_of_order.insert(seq);
        } // else: duplicate of already-delivered data; still ACK.
        let ack_arrival = now + self.cfg.ack_delay;
        self.pending_acks.push_back((ack_arrival, self.rcv_next));
        SourceOutput::wake_at(ack_arrival)
    }

    fn label(&self) -> String {
        format!("tcp-{}", self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpfq_core::{Hierarchy, SchedulerKind};
    use hpfq_sim::{Network, Route};

    fn run_one_tcp(
        link_bps: f64,
        buffer_bytes: u64,
        delivery_delay: f64,
        horizon: f64,
    ) -> (hpfq_sim::FlowStats, u64) {
        let mut h = Hierarchy::builder(link_bps, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let leaf = h.add_leaf(root, 1.0).unwrap();
        let mut net = Network::new();
        net.add_link(h);
        let tcp = TcpSource::new(
            0,
            TcpConfig {
                mss_bytes: 1000,
                ack_delay: 0.01,
                ..TcpConfig::default()
            },
        );
        net.add_route(
            0,
            tcp,
            Route::single(leaf, Some(buffer_bytes), delivery_delay),
        );
        net.run(horizon);
        let drops = net.stats.flow(0).drops;
        (net.stats.flow(0), drops)
    }

    /// A single greedy TCP over an otherwise idle link fills the pipe.
    #[test]
    fn single_flow_achieves_near_link_rate() {
        let (stats, _) = run_one_tcp(800_000.0, 20_000, 0.01, 20.0);
        let goodput = stats.bytes as f64 * 8.0 / 20.0;
        assert!(
            goodput > 0.8 * 800_000.0,
            "goodput {goodput} too low ({} pkts, {} drops)",
            stats.packets,
            stats.drops
        );
    }

    /// With a tiny buffer the flow still makes progress (losses trigger
    /// recovery, not deadlock).
    #[test]
    fn survives_small_buffer() {
        let (stats, drops) = run_one_tcp(800_000.0, 4_000, 0.01, 30.0);
        assert!(drops > 0, "expected losses with a 4-packet buffer");
        let goodput = stats.bytes as f64 * 8.0 / 30.0;
        assert!(
            goodput > 0.4 * 800_000.0,
            "goodput {goodput} with {drops} drops"
        );
    }

    /// Two TCPs with 3:1 scheduler shares converge to a 3:1 bandwidth
    /// split — the scheduler, not TCP dynamics, dictates the allocation
    /// (the §5.2 premise).
    #[test]
    fn two_flows_follow_scheduler_shares() {
        let mut h = Hierarchy::builder(800_000.0, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let a = h.add_leaf(root, 0.75).unwrap();
        let b = h.add_leaf(root, 0.25).unwrap();
        let mut net = Network::new();
        net.add_link(h);
        for (flow, leaf) in [(0u32, a), (1u32, b)] {
            let tcp = TcpSource::new(
                flow,
                TcpConfig {
                    mss_bytes: 1000,
                    ack_delay: 0.01,
                    ..TcpConfig::default()
                },
            );
            net.add_route(flow, tcp, Route::single(leaf, Some(16_000), 0.01));
        }
        net.run(40.0);
        let ra = net.stats.flow(0).bytes as f64;
        let rb = net.stats.flow(1).bytes as f64;
        let ratio = ra / rb;
        assert!(
            (2.2..4.0).contains(&ratio),
            "expected ~3:1 split, got {ratio:.2} ({ra} vs {rb})"
        );
        // Link well utilized.
        assert!(ra + rb > 0.8 * 800_000.0 / 8.0 * 40.0);
    }

    /// Drives the state machine by hand through a single segment loss:
    /// three duplicate ACKs must trigger exactly one fast retransmit of
    /// the missing segment, halve the window, and recovery must end on
    /// the cumulative ACK.
    #[test]
    fn fast_retransmit_on_three_dup_acks() {
        let mut tcp = TcpSource::new(
            7,
            TcpConfig {
                mss_bytes: 100,
                ack_delay: 0.0, // ACKs process at delivery time
                init_ssthresh: 64.0,
                ..TcpConfig::default()
            },
        );
        let seq_of = |p: &Packet| p.id & ((1 << 40) - 1);
        // Open the connection; cwnd=1 → one segment (seq 0).
        let out = tcp.start();
        let out = tcp.on_wake(out.wakes[0]);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(seq_of(&out.packets[0]), 0);
        // Grow the window a little: deliver and ACK segments in order.
        let mut t = 0.01;
        let mut in_flight: Vec<Packet> = out.packets.clone();
        for _ in 0..4 {
            let mut next_flight = Vec::new();
            for pkt in in_flight {
                let d = tcp.on_delivered(t, &pkt);
                // ack_delay = 0: the ACK wake fires immediately.
                for w in d.wakes {
                    let o = tcp.on_wake(w.max(t));
                    next_flight.extend(o.packets);
                }
                t += 0.001;
            }
            in_flight = next_flight;
        }
        assert!(
            in_flight.len() >= 4,
            "window should have opened: {}",
            in_flight.len()
        );
        // Lose the first in-flight segment; deliver the next three.
        let lost = in_flight[0];
        let lost_seq = seq_of(&lost);
        let mut rtx: Vec<Packet> = Vec::new();
        for pkt in &in_flight[1..4] {
            let d = tcp.on_delivered(t, pkt);
            for w in d.wakes {
                let o = tcp.on_wake(w.max(t));
                rtx.extend(o.packets);
            }
            t += 0.001;
        }
        // The third duplicate ACK triggered the fast retransmit of the
        // lost segment (plus possibly window-inflation transmissions).
        assert_eq!(tcp.retransmits(), 1, "exactly one fast retransmit");
        assert!(
            rtx.iter().any(|p| seq_of(p) == lost_seq),
            "the hole (seq {lost_seq}) must be retransmitted, got {:?}",
            rtx.iter().map(&seq_of).collect::<Vec<_>>()
        );
        // Deliver the rest of the original flight (further duplicate
        // ACKs: window inflation only, no additional retransmits)...
        for pkt in &in_flight[4..] {
            let d = tcp.on_delivered(t, pkt);
            for w in d.wakes {
                let _ = tcp.on_wake(w.max(t));
            }
            t += 0.001;
        }
        assert_eq!(tcp.retransmits(), 1);
        // ...then the retransmission itself: the cumulative ACK covers the
        // whole recovery window, recovery exits, no further retransmit
        // (delivering only a prefix here would legitimately trigger
        // NewReno's partial-ACK retransmission instead).
        let rt = *rtx.iter().find(|p| seq_of(p) == lost_seq).unwrap();
        let d = tcp.on_delivered(t, &rt);
        for w in d.wakes {
            let _ = tcp.on_wake(w.max(t));
        }
        assert_eq!(tcp.retransmits(), 1);
    }

    /// Sequence space sanity: the receiver never sees a gap it cannot
    /// close (every retransmission eventually fills holes).
    #[test]
    fn no_permanent_holes() {
        let mut h = Hierarchy::builder(400_000.0, |r| SchedulerKind::Wf2qPlus.build(r)).build();
        let root = h.root();
        let leaf = h.add_leaf(root, 1.0).unwrap();
        let mut net = Network::new();
        net.add_link(h);
        let tcp = TcpSource::new(0, TcpConfig::default());
        net.add_route(0, tcp, Route::single(leaf, Some(5_000), 0.02));
        net.run(30.0);
        let stats = net.stats.flow(0);
        // Progress implies holes were repaired despite drops.
        assert!(stats.drops > 0);
        assert!(stats.packets > 500, "{} packets", stats.packets);
    }
}
