//! The H-PFQ hierarchy of paper §4: a tree of one-level [`NodeScheduler`]s
//! approximating H-GPS.
//!
//! ## Structure
//!
//! The root node represents the physical link; each leaf holds a real FIFO
//! packet queue; every internal node runs a one-level scheduler over its
//! children's *logical queues*. A logical queue exposes only its head
//! packet; the packet itself stays in the leaf FIFO until the link finishes
//! transmitting it (paper §4.2). At any moment when the server is busy
//! there is a path from the root to a leaf whose logical heads all refer to
//! the packet in flight.
//!
//! ## Driving protocol (what the paper's pseudocode becomes)
//!
//! * [`Hierarchy::enqueue`] — ARRIVE: append to the leaf FIFO; if the leaf
//!   was idle, offer the packet to the parent ([`NodeScheduler::backlog`],
//!   stamping `S = max(F, V_parent)`) and *bubble up*: every ancestor that
//!   was not offering a packet runs RESTART-NODE (selects a head, advancing
//!   its own `V`/`T` per lines 12–13) and offers it upward in turn.
//! * [`Hierarchy::start_transmission_at`] — the link takes the root's offered
//!   packet (pseudocode line 20).
//! * [`Hierarchy::complete_transmission_at`] — RESET-PATH: clear the logical
//!   heads along the in-flight path, pop the packet from its leaf FIFO,
//!   re-offer the leaf's next packet (`S = F`, eq. 28 first case), and
//!   re-run RESTART-NODE bottom-up along the path so every node on it
//!   selects its next head. On return, if the root offers a packet the link
//!   starts it immediately (work conservation).
//!
//! Arrivals during a transmission bubble up until they meet a node already
//! offering a packet — in particular they never disturb the in-flight path,
//! exactly as in the paper. Ancestors beyond that point still learn of the
//! arrival through [`NodeScheduler::arrival_hint`], which the GPS-emulating
//! policies (WFQ, WF²Q) use to keep their per-session fluid backlogs — and
//! hence their virtual-time slopes — exact rather than head-limited.
//!
//! ## Reference time
//!
//! Nodes are clocked purely by their own dispatches (reference time §4.1):
//! real time never enters the tree. For the root, reference time coincides
//! with real time during busy periods (eq. 32), so a depth-1 hierarchy is a
//! standalone packet server.

use std::collections::VecDeque;

use hpfq_obs::{
    BacklogEvent, BusyResetEvent, DispatchEvent, EnqueueEvent, NoopObserver, Observer, PacketInfo,
    TxEvent,
};

use hpfq_obs::snap::{SnapError, Value};

use crate::error::HpfqError;
use crate::packet::Packet;
use crate::scheduler::{NodeScheduler, SessionId};
use crate::vtime;

fn pkt_info(p: &Packet) -> PacketInfo {
    PacketInfo {
        id: p.id,
        flow: p.flow,
        len_bytes: p.len_bytes,
        arrival: p.arrival,
    }
}

/// Identifies a node in a [`Hierarchy`]. The root is
/// [`Hierarchy::root`]; ids are dense indices assigned in creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The head of a logical queue: which leaf's front packet it refers to.
#[derive(Debug, Clone, Copy)]
struct Head {
    leaf: usize,
    bits: f64,
}

#[derive(Debug)]
struct Node<S> {
    /// `(parent index, session slot within the parent's scheduler)`;
    /// `None` for the root.
    parent: Option<(usize, SessionId)>,
    /// Child node index per session slot (internal nodes only).
    children: Vec<usize>,
    /// The one-level scheduler (internal nodes only).
    sched: Option<S>,
    /// Guaranteed rate `r_n = φ_n · r_parent` in bits/s.
    rate: f64,
    /// Share of the parent's rate (1.0 for the root).
    phi: f64,
    /// Running sum of children's shares, for validation.
    child_phi_sum: f64,
    /// The packet this node currently offers to its parent.
    head: Option<Head>,
    /// The child whose head this node adopted.
    active_child: Option<usize>,
    /// Real packet queue (leaves only).
    fifo: VecDeque<Packet>,
    /// Queued bytes in `fifo`, for buffer management by the caller.
    fifo_bytes: u64,
    is_leaf: bool,
    /// The node has been removed from the tree: its share is returned to
    /// the parent's pool and it accepts no further traffic. The slot stays
    /// allocated (node ids are dense and stable).
    detached: bool,
    /// Removal was requested while the node still offered a head packet:
    /// the head finishes service normally, then the detach completes.
    draining: bool,
}

/// An H-PFQ server: a tree of one-level schedulers. See the
/// [module documentation](self) for the driving protocol.
///
/// The second type parameter is an [`Observer`] receiving every scheduling
/// event; it defaults to [`NoopObserver`], under which all instrumentation
/// compiles away.
pub struct Hierarchy<S: NodeScheduler, O: Observer = NoopObserver> {
    nodes: Vec<Node<S>>,
    transmitting: bool,
    /// Warped time at which the current busy period began (eq. 32: the
    /// root's reference time is elapsed busy time *on the warped clock* —
    /// see `warp_base`).
    busy_start: f64,
    /// The root's reference clock assumes the busy link serves at its
    /// nominal rate, so when the physical link degrades (an outage, a
    /// rate fluctuation) real time outruns the tag arithmetic and the
    /// GPS-exact policies' `V` desynchronizes. The warped clock fixes the
    /// unit: it advances at `warp_factor` (= actual/nominal rate) per real
    /// second, so one warped second is always one nominal-rate-second of
    /// link work. `warp_base`/`warp_time` anchor the current segment.
    warp_base: f64,
    warp_time: f64,
    warp_factor: f64,
    /// Event sink.
    obs: O,
    /// Best-known real time, advanced by arrivals and the `*_at` driving
    /// calls; stamps events from code paths that have no exact clock.
    last_time: f64,
    /// Output link id stamped on every emitted event (0 for single-link
    /// setups); lets one observer ride a merged multi-link trace.
    link: usize,
    /// Reused in [`Hierarchy::complete_transmission_at`] for the in-flight
    /// root→leaf path, so RESET-PATH allocates nothing in steady state.
    path_scratch: Vec<usize>,
}

impl<S: NodeScheduler, O: Observer> std::fmt::Debug for Hierarchy<S, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("nodes", &self.nodes.len())
            .field("transmitting", &self.transmitting)
            .finish()
    }
}

/// Builds a [`Hierarchy`]: the scheduler factory lives here, during
/// construction only, so the finished hierarchy is plain data — no boxed
/// closure rides along on the hot path.
///
/// ```
/// use hpfq_core::{Hierarchy, MixedScheduler, SchedulerKind};
///
/// let mut b = Hierarchy::<MixedScheduler>::builder(1e9, |r| SchedulerKind::Wf2qPlus.build(r));
/// let cls = b.add_internal(b.root(), 0.8)?;
/// let leaf = b.add_leaf(cls, 0.5)?;
/// let h = b.build();
/// # let _ = (leaf, h);
/// # Ok::<(), hpfq_core::HpfqError>(())
/// ```
///
/// Mid-run churn does not need the factory: leaves attach via
/// [`Hierarchy::add_leaf`], and heterogeneous internal nodes via
/// [`Hierarchy::add_internal_with`] with an explicit scheduler.
pub struct HierarchyBuilder<S: NodeScheduler, O: Observer = NoopObserver> {
    h: Hierarchy<S, O>,
    factory: Box<dyn Fn(f64) -> S>,
}

impl<S: NodeScheduler, O: Observer> HierarchyBuilder<S, O> {
    /// The root node (the physical link).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Stamps every event the finished hierarchy emits with `link` (for
    /// multi-link simulations sharing one trace; defaults to 0).
    pub fn link_id(mut self, link: usize) -> Self {
        self.h.link = link;
        self
    }

    /// Adds an internal node (a link-sharing class) with share `phi` of its
    /// parent, running a scheduler built by the factory.
    pub fn add_internal(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        self.h.validate_new_child(parent, phi)?;
        let rate = phi * self.h.nodes[parent.0].rate;
        let sched = (self.factory)(rate);
        Ok(self.h.push_node(parent, phi, Some(sched), false))
    }

    /// Adds an internal node running a caller-supplied scheduler (for
    /// heterogeneous trees via [`crate::MixedScheduler`]).
    pub fn add_internal_with(
        &mut self,
        parent: NodeId,
        phi: f64,
        sched: S,
    ) -> Result<NodeId, HpfqError> {
        self.h.add_internal_with(parent, phi, sched)
    }

    /// Adds a leaf (a session with a real FIFO queue) with share `phi` of
    /// its parent.
    pub fn add_leaf(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        self.h.add_leaf(parent, phi)
    }

    /// The guaranteed rate of a node added so far (bits/s), for topology
    /// code that derives shares from already-placed nodes.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.h.rate(node)
    }

    /// Finishes construction, dropping the factory. The returned hierarchy
    /// is ready to serve traffic (and can still grow leaves and
    /// caller-supplied internal nodes mid-run).
    pub fn build(self) -> Hierarchy<S, O> {
        self.h
    }
}

impl<S: NodeScheduler> Hierarchy<S> {
    /// Starts a hierarchy whose root (the physical link) runs at
    /// `rate_bps`, building node schedulers with `factory`.
    pub fn builder(rate_bps: f64, factory: impl Fn(f64) -> S + 'static) -> HierarchyBuilder<S> {
        Hierarchy::builder_with_observer(rate_bps, factory, NoopObserver)
    }
}

impl<S: NodeScheduler, O: Observer> Hierarchy<S, O> {
    /// Like [`Hierarchy::builder`], with an explicit event sink attached.
    pub fn builder_with_observer(
        rate_bps: f64,
        factory: impl Fn(f64) -> S + 'static,
        obs: O,
    ) -> HierarchyBuilder<S, O> {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid link rate {rate_bps}"
        );
        let factory: Box<dyn Fn(f64) -> S> = Box::new(factory);
        let root = Node {
            parent: None,
            children: Vec::new(),
            sched: Some(factory(rate_bps)),
            rate: rate_bps,
            phi: 1.0,
            child_phi_sum: 0.0,
            head: None,
            active_child: None,
            fifo: VecDeque::new(),
            fifo_bytes: 0,
            is_leaf: false,
            detached: false,
            draining: false,
        };
        let h = Hierarchy {
            nodes: vec![root],
            transmitting: false,
            busy_start: 0.0,
            warp_base: 0.0,
            warp_time: 0.0,
            warp_factor: 1.0,
            obs,
            last_time: 0.0,
            link: 0,
            path_scratch: Vec::new(),
        };
        HierarchyBuilder { h, factory }
    }

    /// Maps real time onto the warped reference clock (nominal-rate link
    /// seconds). Identity while the link runs at its nominal rate.
    fn warped(&self, t: f64) -> f64 {
        self.warp_base + (t - self.warp_time).max(0.0) * self.warp_factor
    }

    /// Resynchronizes the root's reference clock to a changed physical
    /// link speed: from `now` on, the link delivers `factor` × its nominal
    /// rate (`0.0` = a full outage, during which the reference clock — and
    /// with it the GPS-exact policies' virtual time — freezes).
    ///
    /// Drivers that vary the service rate (fault injection, shaped links)
    /// must call this at every change; otherwise the GPS emulation of
    /// the WFQ/WF²Q rank programs measures elapsed *real* time against
    /// work-based tags and its virtual time loses monotonicity.
    pub fn set_link_rate_factor(&mut self, now: f64, factor: f64) -> Result<(), HpfqError> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(HpfqError::InvalidRate(factor * self.nodes[0].rate));
        }
        self.warp_base = self.warped(now);
        self.warp_time = now;
        self.warp_factor = factor;
        Ok(())
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The attached observer, mutably (e.g. to flush or read counters).
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.obs
    }

    /// Consumes the hierarchy and returns the observer (e.g. to recover a
    /// trace writer's buffer).
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// The root node (the physical link).
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Link rate in bits/s.
    pub fn link_rate(&self) -> f64 {
        self.nodes[0].rate
    }

    /// The link id stamped on every emitted event (see
    /// [`HierarchyBuilder::link_id`]).
    pub fn link_id(&self) -> usize {
        self.link
    }

    /// Re-stamps future events with `link` — for drivers that assign link
    /// ids after construction (e.g. a network wiring hierarchies to ports).
    pub fn set_link_id(&mut self, link: usize) {
        self.link = link;
    }

    fn validate_new_child(&mut self, parent: NodeId, phi: f64) -> Result<(), HpfqError> {
        if !(phi.is_finite() && phi > 0.0 && phi <= 1.0) {
            return Err(HpfqError::InvalidShare(phi));
        }
        let p = self
            .nodes
            .get(parent.0)
            .ok_or(HpfqError::UnknownNode(parent.0))?;
        if p.is_leaf {
            return Err(HpfqError::NotInternal(parent.0));
        }
        if p.detached || p.draining {
            return Err(HpfqError::NodeDetached(parent.0));
        }
        let sum = p.child_phi_sum + phi;
        if vtime::strictly_after(sum, 1.0) {
            return Err(HpfqError::ShareOverflow {
                node: parent.0,
                sum,
            });
        }
        Ok(())
    }

    fn push_node(
        &mut self,
        parent: NodeId,
        phi: f64,
        mut sched: Option<S>,
        is_leaf: bool,
    ) -> NodeId {
        let rate = phi * self.nodes[parent.0].rate;
        // Every node below the root sees reference time only through its
        // own served work: the dispatch loop passes `ref_now = None` to
        // internal nodes, and root-aware schedulers (PIFO-backed) assert
        // that convention in debug builds.
        if let Some(s) = sched.as_mut() {
            s.set_is_root(false);
        }
        let idx = self.nodes.len();
        let slot = self.nodes[parent.0]
            .sched
            .as_mut()
            // lint:allow(L002): construct() only creates children under internal nodes
            .expect("internal node has a scheduler")
            .add_session(phi);
        debug_assert_eq!(slot.0, self.nodes[parent.0].children.len());
        self.nodes[parent.0].children.push(idx);
        self.nodes[parent.0].child_phi_sum += phi;
        self.nodes.push(Node {
            parent: Some((parent.0, slot)),
            children: Vec::new(),
            sched,
            rate,
            phi,
            child_phi_sum: 0.0,
            head: None,
            active_child: None,
            fifo: VecDeque::new(),
            fifo_bytes: 0,
            is_leaf,
            detached: false,
            draining: false,
        });
        NodeId(idx)
    }

    /// Adds an internal node running a caller-supplied scheduler (for
    /// heterogeneous trees via [`crate::MixedScheduler`]). The scheduler's
    /// configured rate should equal `phi` times the parent's rate.
    pub fn add_internal_with(
        &mut self,
        parent: NodeId,
        phi: f64,
        sched: S,
    ) -> Result<NodeId, HpfqError> {
        self.validate_new_child(parent, phi)?;
        Ok(self.push_node(parent, phi, Some(sched), false))
    }

    /// Adds a leaf (a session with a real FIFO queue) with share `phi` of
    /// its parent.
    pub fn add_leaf(&mut self, parent: NodeId, phi: f64) -> Result<NodeId, HpfqError> {
        self.validate_new_child(parent, phi)?;
        Ok(self.push_node(parent, phi, None, true))
    }

    /// Removes a leaf mid-run (flow churn / quarantine), returning the
    /// packets purged from its queue.
    ///
    /// This is exactly the dynamic-session scenario WF²Q+'s virtual-time
    /// function was designed for (eqs. 27–29): an idle session exerts no
    /// pull on `V`, so once the leaf stops offering packets its share is
    /// redistributed among the remaining backlogged siblings by work
    /// conservation, with no clock surgery.
    ///
    /// Semantics: every packet *behind* the leaf's currently offered head
    /// is purged immediately and returned for accounting. If the leaf is
    /// offering a head (possibly in flight on the link), that one packet
    /// finishes service normally — retracting a stamped head from ancestor
    /// schedulers mid-selection would corrupt their GPS bookkeeping — and
    /// the detach completes at its RESET-PATH. An idle leaf detaches
    /// immediately. Either way the leaf rejects new traffic from this call
    /// onward, and its `phi` returns to the parent's allocatable pool at
    /// finalization.
    pub fn remove_leaf(&mut self, leaf: NodeId) -> Result<Vec<Packet>, HpfqError> {
        let l = leaf.0;
        let node = self.nodes.get(l).ok_or(HpfqError::UnknownNode(l))?;
        if !node.is_leaf {
            return Err(HpfqError::NotALeaf(l));
        }
        if node.detached || node.draining {
            return Err(HpfqError::NodeDetached(l));
        }
        let offering = self.nodes[l].head.is_some();
        let keep = usize::from(offering);
        let mut purged = Vec::new();
        while self.nodes[l].fifo.len() > keep {
            if let Some(p) = self.nodes[l].fifo.pop_back() {
                self.nodes[l].fifo_bytes -= u64::from(p.len_bytes);
                purged.push(p);
            }
        }
        purged.reverse(); // back-to-front pops -> arrival order
        if offering {
            self.nodes[l].draining = true;
        } else {
            debug_assert_eq!(self.nodes[l].fifo.len(), 0);
            self.detach_finalize(l);
        }
        Ok(purged)
    }

    /// Removes an interior class whose children have all been removed. The
    /// class's share returns to its parent's allocatable pool.
    pub fn remove_internal(&mut self, node: NodeId) -> Result<(), HpfqError> {
        let n = node.0;
        let nd = self.nodes.get(n).ok_or(HpfqError::UnknownNode(n))?;
        if nd.is_leaf {
            return Err(HpfqError::NotInternal(n));
        }
        if nd.parent.is_none() {
            // The root is the physical link; it cannot be removed.
            return Err(HpfqError::UnknownNode(n));
        }
        if nd.detached {
            return Err(HpfqError::NodeDetached(n));
        }
        let live_child = self.nodes[n]
            .children
            .iter()
            .any(|&c| !self.nodes[c].detached);
        if live_child || self.nodes[n].head.is_some() {
            return Err(HpfqError::HasChildren(n));
        }
        self.detach_finalize(n);
        Ok(())
    }

    /// Completes a detach: returns the node's share to the parent pool and
    /// marks the slot removed. The underlying scheduler session simply
    /// stays idle forever — an idle session is invisible to every policy's
    /// selection and virtual clock.
    fn detach_finalize(&mut self, n: usize) {
        self.nodes[n].draining = false;
        self.nodes[n].detached = true;
        if let Some((p, _)) = self.nodes[n].parent {
            let phi = self.nodes[n].phi;
            // Clamp: repeated add/remove cycles must never drive the pool
            // accounting negative through f64 rounding.
            self.nodes[p].child_phi_sum = (self.nodes[p].child_phi_sum - phi).max(0.0);
        }
    }

    /// Whether `node` has been removed (or is draining toward removal).
    pub fn is_detached(&self, node: NodeId) -> bool {
        self.nodes[node.0].detached || self.nodes[node.0].draining
    }

    /// ARRIVE: appends `pkt` to leaf `leaf`'s queue and propagates logical
    /// heads up the tree.
    ///
    /// `pkt.arrival` is taken as the (real) arrival time: arrivals within
    /// one run must carry non-decreasing arrival stamps (the simulator
    /// guarantees this). The root server's reference time at the arrival —
    /// real time elapsed in the current busy period, eq. 32 — is derived
    /// from it, so arrivals between dispatches are stamped with the exact
    /// root virtual time instead of the dispatch-quantized one. Internal
    /// nodes remain clocked purely by their own dispatches, as in the
    /// paper's pseudocode.
    ///
    /// # Panics
    /// If `leaf` is not a valid, attached leaf node or `pkt` is malformed.
    /// Fallible callers (anything fed by untrusted sources) should use
    /// [`Hierarchy::try_enqueue`] instead.
    pub fn enqueue(&mut self, leaf: NodeId, pkt: Packet) {
        if let Err(e) = self.try_enqueue(leaf, pkt) {
            // Documented contract of the infallible convenience API; hot
            // callers use try_enqueue, so this is not hot-path tainted.
            panic!("enqueue: {e}");
        }
    }

    /// Fallible ARRIVE: validates the packet and the target leaf, then
    /// enqueues. On `Err` the hierarchy is unchanged — this is the
    /// graceful-degradation entry point for untrusted traffic.
    pub fn try_enqueue(&mut self, leaf: NodeId, pkt: Packet) -> Result<(), HpfqError> {
        let l = leaf.0;
        let node = self.nodes.get(l).ok_or(HpfqError::UnknownNode(l))?;
        if !node.is_leaf {
            return Err(HpfqError::NotALeaf(l));
        }
        if node.detached || node.draining {
            return Err(HpfqError::NodeDetached(l));
        }
        pkt.validate()?;
        if self.is_idle() {
            self.busy_start = self.warped(pkt.arrival);
        }
        self.last_time = self.last_time.max(pkt.arrival);
        let root_ref = (self.warped(pkt.arrival) - self.busy_start).max(0.0);
        self.nodes[l].fifo_bytes += u64::from(pkt.len_bytes);
        self.nodes[l].fifo.push_back(pkt);
        if O::ENABLED {
            self.obs.on_enqueue(&EnqueueEvent {
                time: pkt.arrival,
                link: self.link,
                leaf: l,
                pkt: pkt_info(&pkt),
                queue_depth: self.nodes[l].fifo.len(),
                queue_bytes: self.nodes[l].fifo_bytes,
            });
        }
        let bits = pkt.bits();
        if self.nodes[l].head.is_some() {
            // The leaf already offers a packet, so no head changes upstream
            // — but the arrival still joins the emulated GPS backlog of
            // every ancestor (GPS-exact policies track it; others ignore
            // the hint).
            self.hint_up(l, bits, root_ref);
            return Ok(());
        }
        self.nodes[l].head = Some(Head { leaf: l, bits });
        if O::ENABLED {
            self.obs.on_node_backlog(&BacklogEvent {
                time: pkt.arrival,
                link: self.link,
                node: l,
                active: true,
            });
        }
        // lint:allow(L002): enqueue targets a leaf, and every leaf has a parent
        let (p, slot) = self.nodes[l].parent.expect("leaf has a parent");
        let hint = if p == 0 { Some(root_ref) } else { None };
        self.sched_mut(p).backlog(slot, bits, hint);
        self.bubble_up(p, bits, root_ref);
        Ok(())
    }

    /// Announces an arrival of `bits` bits inside `from`'s subtree to every
    /// ancestor scheduler whose session for the path child was *already*
    /// backlogged (and therefore received no `backlog()` call). Keeps the
    /// GPS-emulating policies' per-session fluid backlogs exact.
    fn hint_up(&mut self, from: usize, bits: f64, root_ref: f64) {
        let mut n = from;
        while let Some((p, slot)) = self.nodes[n].parent {
            let rn = if p == 0 { Some(root_ref) } else { None };
            self.sched_mut(p).arrival_hint(slot, bits, rn);
            n = p;
        }
    }

    /// Whether no packet is queued anywhere and the link is idle.
    pub fn is_idle(&self) -> bool {
        !self.transmitting
            && self.nodes[0].head.is_none()
            && self.nodes[0]
                .sched
                .as_ref()
                // lint:allow(L002): node 0 is the root, which is always internal
                .expect("root has a scheduler")
                .backlogged()
                == 0
    }

    /// RESTART-NODE chain for newly backlogged subtrees: every ancestor not
    /// yet offering a packet selects one and offers it upward. Ancestors
    /// above the first node that already offered a packet are told about
    /// the arrival via [`NodeScheduler::arrival_hint`] instead.
    fn bubble_up(&mut self, from: usize, bits: f64, root_ref: f64) {
        let mut n = from;
        while self.nodes[n].head.is_none() {
            let v_before = self.sched_mut(n).virtual_time();
            let slot = self
                .sched_mut(n)
                .select_next()
                // lint:allow(L002): loop invariant: a descendant of n just became backlogged
                .expect("bubble_up reached a node with no backlogged child");
            if O::ENABLED {
                self.emit_dispatch(n, slot, v_before);
            }
            let child = self.nodes[n].children[slot.0];
            let head = self.nodes[child]
                .head
                // lint:allow(L002): select_next returned this child, so it offers a head
                .expect("selected child offers a head");
            self.nodes[n].head = Some(head);
            self.nodes[n].active_child = Some(child);
            if O::ENABLED {
                let t = self.last_time;
                self.obs.on_node_backlog(&BacklogEvent {
                    time: t,
                    link: self.link,
                    node: n,
                    active: true,
                });
            }
            let Some((p, pslot)) = self.nodes[n].parent else {
                return; // root now offers a packet; the link may start it
            };
            let hint = if p == 0 { Some(root_ref) } else { None };
            self.sched_mut(p).backlog(pslot, head.bits, hint);
            n = p;
        }
        // `n` was already offering a packet before this arrival: the bits
        // still extend the emulated GPS backlog of every remaining
        // ancestor.
        self.hint_up(n, bits, root_ref);
    }

    /// Builds and emits the [`DispatchEvent`] for node `n` having just
    /// selected `slot` (tags are read *after* the selection, while the
    /// winner is still the stamped head; `v_before` was captured before).
    fn emit_dispatch(&mut self, n: usize, slot: SessionId, v_before: f64) {
        let child = self.nodes[n].children[slot.0];
        let head_bits = self.nodes[child]
            .head
            // lint:allow(L002): emit_dispatch runs right after this child was selected
            .expect("selected child offers a head")
            .bits;
        let sched = self.nodes[n]
            .sched
            .as_ref()
            // lint:allow(L002): only internal nodes dispatch, and they have schedulers
            .expect("internal node has a scheduler");
        let (start_tag, finish_tag) = sched.tags(slot);
        let e = DispatchEvent {
            time: self.last_time,
            link: self.link,
            node: n,
            session: slot.0,
            child,
            start_tag,
            finish_tag,
            phi: sched.phi(slot),
            v_before,
            v_after: sched.virtual_time(),
            head_bits,
            node_rate: sched.rate_bps(),
            policy: sched.name(),
        };
        // lint:allow(L006): every emit_dispatch call site is behind an O::ENABLED gate
        self.obs.on_dispatch(&e);
    }

    /// Whether the root currently offers a packet the link could transmit.
    pub fn has_pending(&self) -> bool {
        self.nodes[0].head.is_some()
    }

    /// Whether a transmission is in progress (between
    /// [`Hierarchy::start_transmission_at`] and
    /// [`Hierarchy::complete_transmission_at`]).
    pub fn is_transmitting(&self) -> bool {
        self.transmitting
    }

    /// The link takes the root's offered packet for transmission at real
    /// time `now` (stamped on the emitted [`TxEvent`]); returns a copy of
    /// it (the packet stays in its leaf queue until
    /// [`Hierarchy::complete_transmission_at`]). `None` if nothing is
    /// pending.
    ///
    /// # Panics
    /// If a transmission is already in progress.
    pub fn start_transmission_at(&mut self, now: f64) -> Option<Packet> {
        assert!(!self.transmitting, "transmission already in progress");
        let head = self.nodes[0].head?;
        self.transmitting = true;
        self.last_time = self.last_time.max(now);
        let pkt = *self.nodes[head.leaf]
            .fifo
            .front()
            // lint:allow(L002): nodes[0].head is Some, so a packet is queued at that leaf
            .expect("head refers to a queued packet");
        if O::ENABLED {
            self.obs.on_tx_start(&TxEvent {
                time: now,
                link: self.link,
                leaf: head.leaf,
                pkt: pkt_info(&pkt),
            });
        }
        Some(pkt)
    }

    /// RESET-PATH + RESTART-NODE chain at the end of a transmission at
    /// real time `now` (stamped on the emitted [`TxEvent`]): pops the
    /// transmitted packet from its leaf, re-offers successors along the
    /// path, and pre-selects the root's next packet. Returns the popped
    /// packet.
    ///
    /// # Panics
    /// If no transmission is in progress.
    pub fn complete_transmission_at(&mut self, now: f64) -> Packet {
        assert!(self.transmitting, "no transmission in progress");
        self.transmitting = false;
        self.last_time = self.last_time.max(now);

        // Collect the in-flight path root → leaf and clear its heads. The
        // buffer is owned by the hierarchy and reused across completions,
        // so the steady-state cycle performs no heap allocation.
        let mut path = std::mem::take(&mut self.path_scratch);
        path.clear();
        path.push(0usize);
        let mut n = 0usize;
        while let Some(c) = self.nodes[n].active_child {
            path.push(c);
            n = c;
        }
        let leaf = n;
        debug_assert!(self.nodes[leaf].is_leaf, "path must end at a leaf");
        for &x in &path {
            self.nodes[x].head = None;
            self.nodes[x].active_child = None;
        }

        // Dequeue the transmitted packet and re-offer the leaf's next head.
        let pkt = self.nodes[leaf]
            .fifo
            .pop_front()
            // lint:allow(L002): the transmitted head was queued at this leaf
            .expect("transmitted packet was queued");
        self.nodes[leaf].fifo_bytes -= u64::from(pkt.len_bytes);
        if O::ENABLED {
            self.obs.on_tx_complete(&TxEvent {
                time: now,
                link: self.link,
                leaf,
                pkt: pkt_info(&pkt),
            });
        }
        // lint:allow(L002): every leaf has a parent
        let (lp, lslot) = self.nodes[leaf].parent.expect("leaf has a parent");
        match self.nodes[leaf].fifo.front() {
            Some(next) => {
                let bits = next.bits();
                self.nodes[leaf].head = Some(Head { leaf, bits });
                self.sched_mut(lp).requeue(lslot, Some(bits));
            }
            None => {
                self.requeue_empty(leaf, lp, lslot);
                if self.nodes[leaf].draining {
                    // A remove_leaf() was deferred while this head finished
                    // service; the queue is now empty, so complete it.
                    self.detach_finalize(leaf);
                }
            }
        }

        // RESTART-NODE bottom-up along the path (excluding the leaf).
        for i in (0..path.len() - 1).rev() {
            let n = path[i];
            let v_before = self.sched_mut(n).virtual_time();
            let selected = self.sched_mut(n).select_next();
            match selected {
                Some(slot) => {
                    if O::ENABLED {
                        self.emit_dispatch(n, slot, v_before);
                    }
                    let child = self.nodes[n].children[slot.0];
                    let head = self.nodes[child]
                        .head
                        // lint:allow(L002): select_next returned this child, so it offers a head
                        .expect("selected child offers a head");
                    self.nodes[n].head = Some(head);
                    self.nodes[n].active_child = Some(child);
                    if let Some((p, pslot)) = self.nodes[n].parent {
                        self.sched_mut(p).requeue(pslot, Some(head.bits));
                    }
                }
                None => {
                    if let Some((p, pslot)) = self.nodes[n].parent {
                        self.requeue_empty(n, p, pslot);
                    } else if O::ENABLED {
                        // The root itself drained: its busy period ended
                        // when its own scheduler emptied (detected inside
                        // select_next/requeue); report the server going
                        // idle.
                        self.obs.on_node_backlog(&BacklogEvent {
                            time: now,
                            link: self.link,
                            node: 0,
                            active: false,
                        });
                    }
                }
            }
        }
        self.path_scratch = path;
        pkt
    }

    /// Reports `node` idle to its parent (`requeue(slot, None)`), emitting
    /// the backlog transition and — if the parent's scheduler thereby
    /// drained and reset its virtual clock — the busy-period reset.
    fn requeue_empty(&mut self, node: usize, parent: usize, slot: SessionId) {
        let t = self.last_time;
        if O::ENABLED {
            self.obs.on_node_backlog(&BacklogEvent {
                time: t,
                link: self.link,
                node,
                active: false,
            });
        }
        let sched = self.sched_mut(parent);
        sched.requeue(slot, None);
        if O::ENABLED && sched.backlogged() == 0 {
            self.obs.on_busy_reset(&BusyResetEvent {
                time: t,
                link: self.link,
                node: parent,
            });
        }
    }

    /// Convenience for order-only tests and simple examples:
    /// `start_transmission_at` + `complete_transmission_at` in one step,
    /// both at the hierarchy's latest known time.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.start_transmission_at(self.last_time)?;
        Some(self.complete_transmission_at(self.last_time))
    }

    fn sched_mut(&mut self, n: usize) -> &mut S {
        self.nodes[n]
            .sched
            .as_mut()
            // lint:allow(L002): sched_mut is only called for internal nodes
            .expect("internal node has a scheduler")
    }

    // ----- introspection ---------------------------------------------------

    /// Number of nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Guaranteed rate of `node` in bits/s.
    pub fn rate(&self, node: NodeId) -> f64 {
        self.nodes[node.0].rate
    }

    /// Share of `node` relative to its parent.
    pub fn phi(&self, node: NodeId) -> f64 {
        self.nodes[node.0].phi
    }

    /// Parent of `node`, or `None` for the root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.0].parent.map(|(p, _)| NodeId(p))
    }

    /// Whether `node` is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.0].is_leaf
    }

    /// Queued packets in a leaf's FIFO (including one in flight).
    pub fn leaf_queue_len(&self, leaf: NodeId) -> usize {
        debug_assert!(self.nodes[leaf.0].is_leaf);
        self.nodes[leaf.0].fifo.len()
    }

    /// Queued bytes in a leaf's FIFO (including one in flight).
    pub fn leaf_queue_bytes(&self, leaf: NodeId) -> u64 {
        debug_assert!(self.nodes[leaf.0].is_leaf);
        self.nodes[leaf.0].fifo_bytes
    }

    /// Virtual time of an internal node's scheduler.
    pub fn node_virtual_time(&self, node: NodeId) -> f64 {
        self.nodes[node.0]
            .sched
            .as_ref()
            // Diagnostic accessor (documented caller contract: node is
            // internal); unreachable from the engine entry points.
            .expect("internal node")
            .virtual_time()
    }

    /// All leaf node ids, in creation order, including removed ones
    /// ([`Hierarchy::is_detached`] tells them apart).
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_leaf)
            .map(|(i, _)| NodeId(i))
    }

    /// Sum of the shares currently allocated to `node`'s attached children
    /// — the quantity validated against 1.0 when adding a child. Exposed
    /// so churn harnesses can assert it never overflows or goes negative.
    pub fn allocated_share(&self, node: NodeId) -> f64 {
        self.nodes[node.0].child_phi_sum
    }

    // ----- epoch checkpointing (DESIGN.md §14) -----------------------------

    /// Serializes the hierarchy's complete mutable state — tree structure,
    /// leaf FIFOs, per-node scheduler states, the in-flight path, and the
    /// warped-clock anchors — for an epoch checkpoint. The attached
    /// observer is *not* included; drivers checkpoint it separately via
    /// [`Observer::mark`].
    pub fn save_state(&self) -> Value {
        Value::map(vec![
            ("transmitting", Value::Bool(self.transmitting)),
            ("busy_start", Value::F64(self.busy_start)),
            ("warp_base", Value::F64(self.warp_base)),
            ("warp_time", Value::F64(self.warp_time)),
            ("warp_factor", Value::F64(self.warp_factor)),
            ("last_time", Value::F64(self.last_time)),
            ("link", Value::U64(self.link as u64)),
            (
                "nodes",
                Value::List(self.nodes.iter().map(save_node).collect()),
            ),
        ])
    }

    /// Restores state captured by [`Hierarchy::save_state`] onto a
    /// hierarchy *built with the same topology* (same builder calls, same
    /// scheduler configurations). Snapshot nodes beyond the rebuilt tree —
    /// leaves attached by mid-run churn — are re-created; a churn-added
    /// *internal* node cannot be (its scheduler factory is gone by then)
    /// and is reported as an error. Conversely, trailing *leaves* the live
    /// tree has beyond the snapshot — churn that happened after the
    /// checkpoint — are discarded (the rollback path of a checkpoint
    /// restore); trailing internal nodes still mismatch. Share validation
    /// is bypassed: the snapshot's accounting is restored verbatim.
    pub fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let err = |what: String| SnapError { at: 0, what };
        let nodes_v = state.get("nodes")?.items()?;
        if nodes_v.len() < self.nodes.len() {
            // Nodes are only ever appended at runtime (removal merely
            // detaches), so the surplus is a suffix. Only leaves can be
            // added at runtime, which is what makes dropping them safe:
            // an internal node in the suffix means this snapshot belongs
            // to a differently built hierarchy.
            if self.nodes[nodes_v.len()..].iter().any(|n| !n.is_leaf) {
                return Err(err(format!(
                    "snapshot has {} nodes but the rebuilt hierarchy has {} and the \
                     surplus contains internal nodes",
                    nodes_v.len(),
                    self.nodes.len()
                )));
            }
            self.nodes.truncate(nodes_v.len());
        }
        // Pass 1: restore per-node fields, creating churn-added leaves.
        for (i, nv) in nodes_v.iter().enumerate() {
            let parent = load_parent(nv.get("parent")?)?;
            let is_leaf = nv.get("is_leaf")?.as_bool()?;
            if i < self.nodes.len() {
                let n = &self.nodes[i];
                if n.is_leaf != is_leaf || n.parent != parent {
                    return Err(err(format!(
                        "snapshot node {i} does not match the rebuilt hierarchy's topology"
                    )));
                }
            } else {
                if !is_leaf {
                    return Err(err(format!(
                        "snapshot node {i} is an internal node absent from the rebuilt \
                         hierarchy; only churn-added leaves can be restored"
                    )));
                }
                let Some((p, _)) = parent else {
                    return Err(err(format!("churn-added leaf {i} has no parent")));
                };
                if p >= i {
                    return Err(err(format!("leaf {i} references later parent {p}")));
                }
                self.nodes.push(Node {
                    parent,
                    children: Vec::new(),
                    sched: None,
                    rate: 0.0,
                    phi: 0.0,
                    child_phi_sum: 0.0,
                    head: None,
                    active_child: None,
                    fifo: VecDeque::new(),
                    fifo_bytes: 0,
                    is_leaf: true,
                    detached: false,
                    draining: false,
                });
            }
            let n = &mut self.nodes[i];
            n.rate = nv.get("rate")?.as_f64()?;
            n.phi = nv.get("phi")?.as_f64()?;
            n.child_phi_sum = nv.get("child_phi_sum")?.as_f64()?;
            n.head = {
                let hv = nv.get("head")?;
                if hv.is_null() {
                    None
                } else {
                    let items = hv.items()?;
                    if items.len() != 2 {
                        return Err(err(format!("node {i}: malformed head record")));
                    }
                    Some(Head {
                        leaf: items[0].as_usize()?,
                        bits: items[1].as_f64()?,
                    })
                }
            };
            n.active_child = {
                let av = nv.get("active_child")?;
                if av.is_null() {
                    None
                } else {
                    Some(av.as_usize()?)
                }
            };
            n.fifo.clear();
            for pv in nv.get("fifo")?.items()? {
                n.fifo.push_back(Packet::load(pv)?);
            }
            n.fifo_bytes = nv.get("fifo_bytes")?.as_u64()?;
            n.detached = nv.get("detached")?.as_bool()?;
            n.draining = nv.get("draining")?.as_bool()?;
        }
        // Pass 2: rebuild the children tables from the parent links (node
        // ids and session slots are both dense in creation order).
        for n in &mut self.nodes {
            n.children.clear();
        }
        for i in 1..self.nodes.len() {
            let Some((p, slot)) = self.nodes[i].parent else {
                return Err(err(format!("non-root node {i} has no parent")));
            };
            if slot.0 != self.nodes[p].children.len() {
                return Err(err(format!(
                    "node {i}: session slot {} is not dense under parent {p}",
                    slot.0
                )));
            }
            self.nodes[p].children.push(i);
        }
        // Pass 3: scheduler states (after pass 1, so a parent's restored
        // session table may cover churn-added children).
        for (i, nv) in nodes_v.iter().enumerate() {
            let sv = nv.get("sched")?;
            match self.nodes[i].sched.as_mut() {
                Some(s) => s.load_state(sv)?,
                None => {
                    if !sv.is_null() {
                        return Err(err(format!(
                            "snapshot node {i} carries scheduler state but the rebuilt \
                             node has no scheduler"
                        )));
                    }
                }
            }
        }
        self.transmitting = state.get("transmitting")?.as_bool()?;
        self.busy_start = state.get("busy_start")?.as_f64()?;
        self.warp_base = state.get("warp_base")?.as_f64()?;
        self.warp_time = state.get("warp_time")?.as_f64()?;
        self.warp_factor = state.get("warp_factor")?.as_f64()?;
        self.last_time = state.get("last_time")?.as_f64()?;
        self.link = state.get("link")?.as_usize()?;
        self.path_scratch.clear();
        Ok(())
    }
}

/// Serializes one node of the tree (children are rebuilt from the parent
/// links on load, so they are not stored).
fn save_node<S: NodeScheduler>(n: &Node<S>) -> Value {
    Value::map(vec![
        (
            "parent",
            match n.parent {
                Some((p, slot)) => {
                    Value::List(vec![Value::U64(p as u64), Value::U64(slot.0 as u64)])
                }
                None => Value::Null,
            },
        ),
        ("rate", Value::F64(n.rate)),
        ("phi", Value::F64(n.phi)),
        ("child_phi_sum", Value::F64(n.child_phi_sum)),
        (
            "head",
            match n.head {
                Some(h) => Value::List(vec![Value::U64(h.leaf as u64), Value::F64(h.bits)]),
                None => Value::Null,
            },
        ),
        (
            "active_child",
            match n.active_child {
                Some(c) => Value::U64(c as u64),
                None => Value::Null,
            },
        ),
        (
            "fifo",
            Value::List(n.fifo.iter().map(Packet::save).collect()),
        ),
        ("fifo_bytes", Value::U64(n.fifo_bytes)),
        ("is_leaf", Value::Bool(n.is_leaf)),
        ("detached", Value::Bool(n.detached)),
        ("draining", Value::Bool(n.draining)),
        (
            "sched",
            match &n.sched {
                Some(s) => s.save_state(),
                None => Value::Null,
            },
        ),
    ])
}

/// Restores a `parent` record: `null` or `[parent index, session slot]`.
fn load_parent(v: &Value) -> Result<Option<(usize, SessionId)>, SnapError> {
    if v.is_null() {
        return Ok(None);
    }
    let items = v.items()?;
    if items.len() != 2 {
        return Err(SnapError {
            at: 0,
            what: format!("parent record has {} fields, expected 2", items.len()),
        });
    }
    Ok(Some((
        items[0].as_usize()?,
        SessionId(items[1].as_usize()?),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixed::{MixedScheduler, SchedulerKind};

    fn wf2qp_node(rate: f64) -> MixedScheduler {
        SchedulerKind::Wf2qPlus.build(rate)
    }

    fn wf2qp(rate: f64) -> Hierarchy<MixedScheduler> {
        Hierarchy::builder(rate, wf2qp_node).build()
    }

    fn pkt(id: u64, flow: u32) -> Packet {
        Packet::new(id, flow, 125, 0.0) // 1000 bits
    }

    #[test]
    fn depth_one_equal_weights_alternate() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(100 + i, 1));
        }
        let mut flows = Vec::new();
        while let Some(p) = h.dequeue() {
            flows.push(p.flow);
        }
        assert_eq!(flows.len(), 8);
        for w in flows.windows(2) {
            assert_ne!(w[0], w[1], "equal weights must alternate: {flows:?}");
        }
    }

    /// The §2.2 topology: root children A (0.8) and leaf B (0.2); A's
    /// children A1 (0.75 absolute = 0.9375 of A) and A2 (0.05 absolute =
    /// 0.0625 of A). With A1 idle, A2 and B split the link 80/20; once A1
    /// becomes active the split is 75/5/20.
    #[test]
    fn hierarchical_excess_distribution() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let a = bld.add_internal(root, 0.8).unwrap();
        let b = bld.add_leaf(root, 0.2).unwrap();
        let a1 = bld.add_leaf(a, 0.9375).unwrap();
        let a2 = bld.add_leaf(a, 0.0625).unwrap();
        let mut h = bld.build();

        // Phase 1: A1 idle, A2 and B heavily backlogged.
        for i in 0..200 {
            h.enqueue(a2, pkt(i, 2));
            h.enqueue(b, pkt(1000 + i, 3));
        }
        let mut counts = [0usize; 4];
        for _ in 0..100 {
            let p = h.dequeue().unwrap();
            counts[p.flow as usize] += 1;
        }
        assert!(
            (counts[2] as i64 - 80).unsigned_abs() <= 2,
            "A2 should get ~80%: {counts:?}"
        );
        assert!(
            (counts[3] as i64 - 20).unsigned_abs() <= 2,
            "B should get ~20%: {counts:?}"
        );

        // Phase 2: A1 becomes active.
        for i in 0..200 {
            h.enqueue(a1, pkt(2000 + i, 1));
        }
        let mut counts = [0usize; 4];
        for _ in 0..100 {
            let p = h.dequeue().unwrap();
            counts[p.flow as usize] += 1;
        }
        assert!(
            (counts[1] as i64 - 75).unsigned_abs() <= 2,
            "A1 should get ~75%: {counts:?}"
        );
        assert!(
            (counts[2] as i64 - 5).unsigned_abs() <= 2,
            "A2 should get ~5%: {counts:?}"
        );
        assert!(
            (counts[3] as i64 - 20).unsigned_abs() <= 2,
            "B should get ~20%: {counts:?}"
        );
    }

    #[test]
    fn per_leaf_fifo_order_is_preserved() {
        let mut h = wf2qp(8.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..10 {
            h.enqueue(a, Packet::new(i, 0, 1 + (i as u32 % 3), 0.0));
            h.enqueue(b, Packet::new(100 + i, 1, 2, 0.0));
        }
        let mut last_a = None;
        let mut last_b = None;
        while let Some(p) = h.dequeue() {
            let last = if p.flow == 0 {
                &mut last_a
            } else {
                &mut last_b
            };
            if let Some(prev) = *last {
                assert!(p.id > prev, "per-flow FIFO violated");
            }
            *last = Some(p.id);
        }
    }

    #[test]
    fn arrivals_mid_transmission_do_not_disturb_the_path() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        h.enqueue(a, pkt(1, 0));
        let started = h.start_transmission_at(0.0).unwrap();
        assert_eq!(started.id, 1);
        // b's packet arrives mid-flight; the in-flight head is untouched.
        h.enqueue(b, pkt(2, 1));
        assert!(h.is_transmitting());
        let done = h.complete_transmission_at(0.0);
        assert_eq!(done.id, 1);
        // Root pre-selected b's packet during completion.
        assert!(h.has_pending());
        assert_eq!(h.dequeue().unwrap().id, 2);
        assert!(!h.has_pending());
    }

    #[test]
    fn drains_to_empty_and_restarts() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        h.enqueue(a, pkt(1, 0));
        assert_eq!(h.dequeue().unwrap().id, 1);
        assert!(h.dequeue().is_none());
        assert_eq!(h.leaf_queue_len(a), 0);
        h.enqueue(a, pkt(2, 0));
        assert_eq!(h.dequeue().unwrap().id, 2);
    }

    #[test]
    fn share_validation() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        assert!(matches!(
            h.add_leaf(root, 0.0),
            Err(HpfqError::InvalidShare(_))
        ));
        assert!(matches!(
            h.add_leaf(root, f64::NAN),
            Err(HpfqError::InvalidShare(_))
        ));
        let a = h.add_leaf(root, 0.7).unwrap();
        assert!(matches!(
            h.add_leaf(root, 0.4),
            Err(HpfqError::ShareOverflow { .. })
        ));
        assert!(matches!(h.add_leaf(a, 0.1), Err(HpfqError::NotInternal(_))));
        assert!(h.add_leaf(root, 0.3).is_ok());
    }

    #[test]
    fn try_enqueue_rejects_malformed_and_detached() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let mut bad = pkt(1, 0);
        bad.len_bytes = 0;
        assert!(matches!(
            h.try_enqueue(a, bad),
            Err(HpfqError::InvalidPacket { .. })
        ));
        assert!(matches!(
            h.try_enqueue(NodeId(99), pkt(1, 0)),
            Err(HpfqError::UnknownNode(99))
        ));
        assert!(matches!(
            h.try_enqueue(root, pkt(1, 0)),
            Err(HpfqError::NotALeaf(0))
        ));
        h.remove_leaf(a).unwrap();
        assert!(matches!(
            h.try_enqueue(a, pkt(1, 0)),
            Err(HpfqError::NodeDetached(_))
        ));
        // The rejected enqueues left the tree untouched.
        assert!(h.is_idle());
    }

    #[test]
    fn remove_idle_leaf_frees_its_share() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.7).unwrap();
        let _b = h.add_leaf(root, 0.3).unwrap();
        assert!(matches!(
            h.add_leaf(root, 0.5),
            Err(HpfqError::ShareOverflow { .. })
        ));
        assert!(h.remove_leaf(a).unwrap().is_empty());
        assert!(h.is_detached(a));
        assert!((h.allocated_share(root) - 0.3).abs() < 1e-12);
        // The freed share is allocatable again.
        let c = h.add_leaf(root, 0.6).unwrap();
        assert!(!h.is_detached(c));
        assert_eq!(h.leaves().filter(|&l| !h.is_detached(l)).count(), 2);
        assert_eq!(h.leaves().count(), 3);
    }

    #[test]
    fn remove_backlogged_leaf_drains_head_then_detaches() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..3 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(100 + i, 1));
        }
        // a offers its head; removal purges the two packets behind it.
        let purged = h.remove_leaf(a).unwrap();
        assert_eq!(purged.len(), 2);
        assert_eq!(purged[0].id, 1, "purged in arrival order");
        assert!(h.is_detached(a));
        // Double removal is an error, as is re-enqueueing.
        assert!(matches!(h.remove_leaf(a), Err(HpfqError::NodeDetached(_))));
        // The in-queue head still goes out; everything else served is b's.
        let mut served = Vec::new();
        while let Some(p) = h.dequeue() {
            served.push(p.flow);
        }
        assert_eq!(served.iter().filter(|&&f| f == 0).count(), 1);
        assert_eq!(served.iter().filter(|&&f| f == 1).count(), 3);
        // Detach finalized once the head was served: share freed.
        assert!((h.allocated_share(root) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_leaf_mid_transmission_lets_the_flight_finish() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        h.enqueue(a, pkt(1, 0));
        h.enqueue(a, pkt(2, 0));
        h.enqueue(b, pkt(3, 1));
        let started = h.start_transmission_at(0.0).unwrap();
        assert_eq!(started.flow, 0);
        let purged = h.remove_leaf(a).unwrap();
        assert_eq!(purged.len(), 1); // pkt 2; pkt 1 is in flight
        let done = h.complete_transmission_at(0.0);
        assert_eq!(done.id, 1);
        assert!(h.is_detached(a));
        assert_eq!(h.dequeue().unwrap().id, 3);
        assert!(h.dequeue().is_none());
        assert!((h.allocated_share(root) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remove_internal_requires_empty_subtree() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let cls = bld.add_internal(root, 0.8).unwrap();
        let l1 = bld.add_leaf(cls, 0.5).unwrap();
        let mut h = bld.build();
        assert!(matches!(
            h.remove_internal(cls),
            Err(HpfqError::HasChildren(_))
        ));
        h.remove_leaf(l1).unwrap();
        h.remove_internal(cls).unwrap();
        assert!(h.is_detached(cls));
        assert_eq!(h.allocated_share(root), 0.0);
        assert!(matches!(
            h.add_leaf(cls, 0.1),
            Err(HpfqError::NodeDetached(_))
        ));
        assert!(matches!(
            h.remove_internal(root),
            Err(HpfqError::UnknownNode(0))
        ));
        // Full share is allocatable again.
        h.add_leaf(root, 1.0).unwrap();
    }

    #[test]
    fn churn_add_remove_mid_run_keeps_serving() {
        let mut h = wf2qp(1000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(a, pkt(i, 0));
            h.enqueue(b, pkt(10 + i, 1));
        }
        let mut v_last = 0.0;
        for _ in 0..2 {
            h.dequeue().unwrap();
            let v = h.node_virtual_time(root);
            assert!(v >= v_last);
            v_last = v;
        }
        // Churn: b leaves, c joins with its share, mid-busy-period. The
        // draining head holds b's share until it is served, so dequeue
        // until the allocation frees up.
        h.remove_leaf(b).unwrap();
        let mut served = 0;
        while h.allocated_share(root) > 0.5 + 1e-12 {
            assert!(h.dequeue().is_some(), "drain must complete");
            served += 1;
            v_last = h.node_virtual_time(root);
        }
        let c = h.add_leaf(root, 0.5).unwrap();
        for i in 0..4 {
            h.enqueue(c, pkt(20 + i, 2));
        }
        while let Some(_p) = h.dequeue() {
            let v = h.node_virtual_time(root);
            assert!(
                v >= v_last || h.is_idle(),
                "virtual time went backwards mid-busy-period"
            );
            v_last = v;
            served += 1;
        }
        // 2 already served; remaining: 2 of a's, b's drained head (<=1 of
        // its 2 remaining), c's 4.
        assert!(served >= 7, "served {served}");
        assert!(h.is_detached(b));
        assert!(!h.is_detached(c));
    }

    /// A degraded link (here: half the nominal rate) must not corrupt the
    /// GPS-exact policies' virtual time. Without the reference-clock
    /// resync, real elapsed busy time outruns the work-based tag
    /// arithmetic, `V_GPS` sweeps past every stamped finish tag at the
    /// minimum slope, and the next re-stamp pulls it *backwards* — a
    /// monotonicity violation the invariant checker flags.
    #[test]
    fn degraded_link_resync_keeps_gps_virtual_time_monotone() {
        use hpfq_obs::InvariantObserver;

        let mut bld = Hierarchy::builder_with_observer(
            8000.0,
            |r| SchedulerKind::Wfq.build(r),
            InvariantObserver::new(),
        );
        let root = bld.root();
        let a = bld.add_leaf(root, 0.5).unwrap();
        let b = bld.add_leaf(root, 0.5).unwrap();
        let mut h: Hierarchy<MixedScheduler, InvariantObserver> = bld.build();
        // The physical link now delivers half the nominal rate: a 1000-bit
        // packet takes 0.25 s instead of 0.125 s.
        h.set_link_rate_factor(0.0, 0.5).unwrap();

        let mut id = 0u64;
        let mut t_arr = 0.0;
        let mut now = 0.0;
        for _ in 0..100 {
            // Mild overload at the degraded rate: one packet per leaf every
            // 0.4 s against 4 served per second. Arrivals land in event
            // order: those due during a service slot are enqueued before
            // the slot completes.
            while t_arr <= now + 1e-12 {
                h.try_enqueue(a, Packet::new(id, 0, 125, t_arr)).unwrap();
                h.try_enqueue(b, Packet::new(id + 1, 1, 125, t_arr))
                    .unwrap();
                id += 2;
                t_arr += 0.4;
            }
            assert!(h.start_transmission_at(now).is_some());
            let end = now + 0.25;
            while t_arr < end - 1e-12 {
                h.try_enqueue(a, Packet::new(id, 0, 125, t_arr)).unwrap();
                h.try_enqueue(b, Packet::new(id + 1, 1, 125, t_arr))
                    .unwrap();
                id += 2;
                t_arr += 0.4;
            }
            now = end;
            h.complete_transmission_at(now);
        }
        assert!(h.observer().is_clean(), "{}", h.observer().summary());
    }

    #[test]
    fn rate_factor_rejects_non_finite_and_negative() {
        let mut h = wf2qp(1000.0);
        assert!(matches!(
            h.set_link_rate_factor(0.0, f64::NAN),
            Err(HpfqError::InvalidRate(_))
        ));
        assert!(matches!(
            h.set_link_rate_factor(0.0, -0.5),
            Err(HpfqError::InvalidRate(_))
        ));
        // An outage (factor 0) and a restore are both valid.
        h.set_link_rate_factor(1.0, 0.0).unwrap();
        h.set_link_rate_factor(2.0, 1.0).unwrap();
    }

    #[test]
    fn introspection() {
        let mut bld = Hierarchy::builder(1000.0, wf2qp_node);
        let root = bld.root();
        let a = bld.add_internal(root, 0.8).unwrap();
        let a1 = bld.add_leaf(a, 0.5).unwrap();
        let h = bld.build();
        assert_eq!(h.rate(a), 800.0);
        assert_eq!(h.rate(a1), 400.0);
        assert_eq!(h.parent(a1), Some(a));
        assert_eq!(h.parent(a), Some(root));
        assert_eq!(h.leaves().collect::<Vec<_>>(), vec![a1]);
        assert!(h.is_leaf(a1));
        assert!(!h.is_leaf(a));
    }
}
