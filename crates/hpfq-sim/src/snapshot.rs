//! Deterministic whole-network checkpoints.
//!
//! [`Network::snapshot`] captures *everything* the event loop's future
//! depends on — per-link hierarchies and transmission state, the event
//! queue with its content-derived tie-break keys, statistics, ledgers,
//! escalation state, source generators (RNG streams, plan cursors), and
//! the fault injector — as one [`Value`] tree. The tree serializes
//! byte-deterministically ([`Value::to_bytes`]), so two identical runs
//! checkpointed at the same instant produce identical bytes.
//!
//! The proof obligation the format is designed around:
//!
//! ```text
//! run(0..T)  ≡  run(0..t) → snapshot → restore → run(t..T)
//! ```
//!
//! on statistics, service records, ledgers, and the merged trace. The
//! crash-contained parallel runtime leans on this: a supervisor
//! checkpoints the merged master at conservative-epoch boundaries and
//! rolls every shard back to the last checkpoint when one panics.
//!
//! Snapshots are taken on *full* networks (never on one shard of a
//! parallel run — the supervisor checkpoints the merged master between
//! stints). Restoring accepts three situations:
//!
//! * the same network object later in its life (rollback) — churn the
//!   live tree accrued after the checkpoint is discarded;
//! * a freshly rebuilt network with the same topology (resume from a
//!   persisted snapshot) — churn the snapshot accrued after the build is
//!   re-created;
//! * the degenerate identity restore.

use hpfq_core::{HpfqError, NodeId, NodeScheduler, Packet};
use hpfq_obs::snap::{SnapError, Value};
use hpfq_obs::Observer;

use crate::network::{
    DetachReason, Hop, LinkLedger, NetEvent, Network, Route, SimCommand, SourceSlot,
};
use crate::source::load_source;

/// Format version stamped into every snapshot. Version 1 could carry
/// planned departures this format has no room for, so `restore` refuses it.
const SNAPSHOT_VERSION: u64 = 2;

fn err(what: String) -> SnapError {
    SnapError { at: 0, what }
}

fn save_opt_u64(v: Option<u64>) -> Value {
    match v {
        Some(n) => Value::U64(n),
        None => Value::Null,
    }
}

fn load_opt_u64(v: &Value) -> Result<Option<u64>, SnapError> {
    if v.is_null() {
        Ok(None)
    } else {
        Ok(Some(v.as_u64()?))
    }
}

fn fixed_list(v: &Value, n: usize, what: &str) -> Result<Vec<Value>, SnapError> {
    let items = v.items()?;
    if items.len() != n {
        return Err(err(format!(
            "{what} has {} fields, expected {n}",
            items.len()
        )));
    }
    Ok(items.to_vec())
}

fn tagged(v: &Value, what: &str) -> Result<(String, Vec<Value>), SnapError> {
    let items = v.items()?;
    let Some((tag, rest)) = items.split_first() else {
        return Err(err(format!("{what} is an empty list")));
    };
    Ok((tag.as_str()?.to_string(), rest.to_vec()))
}

// --- ledgers -------------------------------------------------------------

pub(crate) fn save_ledger(l: &LinkLedger) -> Value {
    Value::List(vec![
        Value::U64(l.bytes_in),
        Value::U64(l.bytes_out),
        Value::U64(l.bytes_purged),
        Value::U64(l.packets_in),
        Value::U64(l.packets_out),
    ])
}

pub(crate) fn load_ledger(v: &Value) -> Result<LinkLedger, SnapError> {
    let f = fixed_list(v, 5, "link ledger")?;
    Ok(LinkLedger {
        bytes_in: f[0].as_u64()?,
        bytes_out: f[1].as_u64()?,
        bytes_purged: f[2].as_u64()?,
        packets_in: f[3].as_u64()?,
        packets_out: f[4].as_u64()?,
    })
}

// --- routes --------------------------------------------------------------

fn save_hop(h: &Hop) -> Value {
    Value::List(vec![
        Value::U64(h.link as u64),
        Value::U64(h.leaf.index() as u64),
        save_opt_u64(h.buffer_bytes),
        Value::F64(h.prop_delay),
    ])
}

fn load_hop(v: &Value) -> Result<Hop, SnapError> {
    let f = fixed_list(v, 4, "route hop")?;
    Ok(Hop {
        link: f[0].as_usize()?,
        leaf: NodeId(f[1].as_usize()?),
        buffer_bytes: load_opt_u64(&f[2])?,
        prop_delay: f[3].as_f64()?,
    })
}

pub(crate) fn save_route(r: &Route) -> Value {
    Value::List(r.hops.iter().map(save_hop).collect())
}

pub(crate) fn load_route(v: &Value) -> Result<Route, SnapError> {
    let hops = v
        .items()?
        .iter()
        .map(load_hop)
        .collect::<Result<Vec<_>, _>>()?;
    if hops.is_empty() {
        return Err(err("route has no hops".into()));
    }
    // Bypasses `Route::new` — its panicking asserts are for hand-built
    // routes; a snapshot route already passed them when first built.
    Ok(Route { hops })
}

// --- detach reasons ------------------------------------------------------

fn save_reason(r: &DetachReason) -> Value {
    match r {
        DetachReason::Quarantine { strikes } => Value::List(vec![
            Value::Str("quarantine".into()),
            Value::U64(u64::from(*strikes)),
        ]),
        DetachReason::Churn => Value::List(vec![Value::Str("churn".into())]),
    }
}

fn load_reason(v: &Value) -> Result<DetachReason, SnapError> {
    let (tag, rest) = tagged(v, "detach reason")?;
    match tag.as_str() {
        "quarantine" if rest.len() == 1 => Ok(DetachReason::Quarantine {
            strikes: rest[0].as_u32()?,
        }),
        "churn" if rest.is_empty() => Ok(DetachReason::Churn),
        _ => Err(err(format!("unknown detach reason '{tag}'"))),
    }
}

// --- scheduler errors ----------------------------------------------------

/// The packet-validation reasons [`Packet::validate`] can emit. Snapshots
/// store the string; load maps it back to the `'static` original.
const PACKET_REASONS: [&str; 4] = [
    "zero length",
    "length exceeds MAX_PACKET_BYTES",
    "non-finite arrival time",
    "non-finite birth time",
];

pub(crate) fn save_error(e: &HpfqError) -> Value {
    let (tag, fields): (&str, Vec<Value>) = match e {
        HpfqError::InvalidShare(s) => ("invalid_share", vec![Value::F64(*s)]),
        HpfqError::ShareOverflow { node, sum } => (
            "share_overflow",
            vec![Value::U64(*node as u64), Value::F64(*sum)],
        ),
        HpfqError::UnknownNode(n) => ("unknown_node", vec![Value::U64(*n as u64)]),
        HpfqError::NotALeaf(n) => ("not_a_leaf", vec![Value::U64(*n as u64)]),
        HpfqError::NotInternal(n) => ("not_internal", vec![Value::U64(*n as u64)]),
        HpfqError::InvalidRate(r) => ("invalid_rate", vec![Value::F64(*r)]),
        HpfqError::InvalidPacket { id, flow, reason } => (
            "invalid_packet",
            vec![
                Value::U64(*id),
                Value::U64(u64::from(*flow)),
                Value::Str((*reason).to_string()),
            ],
        ),
        HpfqError::NodeDetached(n) => ("node_detached", vec![Value::U64(*n as u64)]),
        HpfqError::HasChildren(n) => ("has_children", vec![Value::U64(*n as u64)]),
    };
    let mut items = vec![Value::Str(tag.into())];
    items.extend(fields);
    Value::List(items)
}

pub(crate) fn load_error(v: &Value) -> Result<HpfqError, SnapError> {
    let (tag, rest) = tagged(v, "scheduler error")?;
    let one_usize = |rest: &[Value]| -> Result<usize, SnapError> {
        if rest.len() != 1 {
            return Err(err(format!(
                "error '{tag}' wants 1 field, got {}",
                rest.len()
            )));
        }
        rest[0].as_usize()
    };
    match tag.as_str() {
        "invalid_share" if rest.len() == 1 => Ok(HpfqError::InvalidShare(rest[0].as_f64()?)),
        "share_overflow" if rest.len() == 2 => Ok(HpfqError::ShareOverflow {
            node: rest[0].as_usize()?,
            sum: rest[1].as_f64()?,
        }),
        "unknown_node" => Ok(HpfqError::UnknownNode(one_usize(&rest)?)),
        "not_a_leaf" => Ok(HpfqError::NotALeaf(one_usize(&rest)?)),
        "not_internal" => Ok(HpfqError::NotInternal(one_usize(&rest)?)),
        "invalid_rate" if rest.len() == 1 => Ok(HpfqError::InvalidRate(rest[0].as_f64()?)),
        "invalid_packet" if rest.len() == 3 => {
            let reason_str = rest[2].as_str()?;
            let reason = PACKET_REASONS
                .iter()
                .find(|r| **r == reason_str)
                .copied()
                .ok_or_else(|| err(format!("unknown packet reason '{reason_str}'")))?;
            Ok(HpfqError::InvalidPacket {
                id: rest[0].as_u64()?,
                flow: rest[1].as_u32()?,
                reason,
            })
        }
        "node_detached" => Ok(HpfqError::NodeDetached(one_usize(&rest)?)),
        "has_children" => Ok(HpfqError::HasChildren(one_usize(&rest)?)),
        _ => Err(err(format!("unknown scheduler error '{tag}'"))),
    }
}

// --- commands ------------------------------------------------------------

fn save_command(cmd: &SimCommand) -> Result<Value, SnapError> {
    Ok(match cmd {
        SimCommand::SetLinkRateOn { link, bps } => Value::List(vec![
            Value::Str("set_rate_on".into()),
            Value::U64(*link as u64),
            Value::F64(*bps),
        ]),
        SimCommand::AddFlow {
            parent,
            phi,
            flow,
            source,
            buffer_bytes,
            delivery_delay,
        } => Value::List(vec![
            Value::Str("add_flow".into()),
            Value::U64(parent.index() as u64),
            Value::F64(*phi),
            Value::U64(u64::from(*flow)),
            source.save_state()?,
            save_opt_u64(*buffer_bytes),
            Value::F64(*delivery_delay),
        ]),
        SimCommand::RemoveFlow(flow) => Value::List(vec![
            Value::Str("remove_flow".into()),
            Value::U64(u64::from(*flow)),
        ]),
    })
}

fn load_command(v: &Value) -> Result<SimCommand, SnapError> {
    let (tag, rest) = tagged(v, "command")?;
    match tag.as_str() {
        "set_rate_on" if rest.len() == 2 => Ok(SimCommand::SetLinkRateOn {
            link: rest[0].as_usize()?,
            bps: rest[1].as_f64()?,
        }),
        "add_flow" if rest.len() == 6 => Ok(SimCommand::AddFlow {
            parent: NodeId(rest[0].as_usize()?),
            phi: rest[1].as_f64()?,
            flow: rest[2].as_u32()?,
            source: load_source(&rest[3])?,
            buffer_bytes: load_opt_u64(&rest[4])?,
            delivery_delay: rest[5].as_f64()?,
        }),
        "remove_flow" if rest.len() == 1 => Ok(SimCommand::RemoveFlow(rest[0].as_u32()?)),
        _ => Err(err(format!("unknown command '{tag}'"))),
    }
}

// --- events --------------------------------------------------------------

pub(crate) fn save_event(ev: &NetEvent) -> Result<Value, SnapError> {
    Ok(match ev {
        NetEvent::Wake(i) => Value::List(vec![Value::Str("wake".into()), Value::U64(*i as u64)]),
        NetEvent::TxComplete { link, epoch } => Value::List(vec![
            Value::Str("tx".into()),
            Value::U64(*link as u64),
            Value::U64(*epoch),
        ]),
        NetEvent::Arrive { src, hop, pkt } => Value::List(vec![
            Value::Str("arrive".into()),
            Value::U64(*src as u64),
            Value::U64(*hop as u64),
            pkt.save(),
        ]),
        NetEvent::Deliver(i, pkt) => Value::List(vec![
            Value::Str("deliver".into()),
            Value::U64(*i as u64),
            pkt.save(),
        ]),
        NetEvent::Command(cmd) => Value::List(vec![Value::Str("cmd".into()), save_command(cmd)?]),
        NetEvent::Detach { src, hop, reason } => Value::List(vec![
            Value::Str("detach".into()),
            Value::U64(*src as u64),
            Value::U64(*hop as u64),
            save_reason(reason),
        ]),
    })
}

pub(crate) fn load_event(v: &Value) -> Result<NetEvent, SnapError> {
    let (tag, rest) = tagged(v, "event")?;
    match tag.as_str() {
        "wake" if rest.len() == 1 => Ok(NetEvent::Wake(rest[0].as_usize()?)),
        "tx" if rest.len() == 2 => Ok(NetEvent::TxComplete {
            link: rest[0].as_usize()?,
            epoch: rest[1].as_u64()?,
        }),
        "arrive" if rest.len() == 3 => Ok(NetEvent::Arrive {
            src: rest[0].as_usize()?,
            hop: rest[1].as_usize()?,
            pkt: Packet::load(&rest[2])?,
        }),
        "deliver" if rest.len() == 2 => Ok(NetEvent::Deliver(
            rest[0].as_usize()?,
            Packet::load(&rest[1])?,
        )),
        "cmd" if rest.len() == 1 => Ok(NetEvent::Command(load_command(&rest[0])?)),
        "detach" if rest.len() == 3 => Ok(NetEvent::Detach {
            src: rest[0].as_usize()?,
            hop: rest[1].as_usize()?,
            reason: load_reason(&rest[2])?,
        }),
        _ => Err(err(format!("unknown event '{tag}'"))),
    }
}

// --- the network ---------------------------------------------------------

impl<S: NodeScheduler, O: Observer> Network<S, O> {
    /// Captures the complete simulation state as a [`Value`] tree.
    ///
    /// Takes `&mut self` because enumerating the event queue drains and
    /// re-schedules it (the queue's contents are otherwise opaque); the
    /// re-insertion happens in drained order, so FIFO tie-breaking is
    /// preserved and the network's behaviour is unchanged — snapshotting
    /// is observationally a no-op.
    ///
    /// Errors if this network is currently one shard of a parallel run
    /// (shards hold only part of the state; checkpoint the merged master
    /// instead), or if an installed source or fault injector does not
    /// support checkpointing.
    pub fn snapshot(&mut self) -> Result<Value, SnapError> {
        if self.shard.is_some() {
            return Err(err(
                "cannot snapshot one shard of a parallel run; checkpoint the merged master".into(),
            ));
        }
        let now = self.engine.now();
        let mut links = Vec::with_capacity(self.links.len());
        for link in &self.links {
            links.push(match link {
                None => Value::Null,
                Some(l) => Value::map(vec![
                    ("server", l.server.save_state()),
                    ("obs", l.server.observer().mark()),
                    ("rate", Value::F64(l.rate)),
                    ("tx_start", Value::F64(l.tx_start)),
                    ("tx_epoch", Value::U64(l.tx_epoch)),
                    ("tx_remaining_bits", Value::F64(l.tx_remaining_bits)),
                    ("tx_updated", Value::F64(l.tx_updated)),
                    ("ledger", save_ledger(&l.ledger)),
                ]),
            });
        }
        // Enumerate the queue: drain in firing order, serialize, put every
        // entry straight back. All pending times are >= now, so the
        // re-schedule neither clamps nor reorders. Every drained event is
        // re-scheduled even when serialization fails partway — the error
        // must not eat the queue.
        let drained = self.engine.drain_ordered();
        let mut events = Vec::with_capacity(drained.len());
        let mut save_err = None;
        for (t, minor, ev) in drained {
            if save_err.is_none() {
                match save_event(&ev) {
                    Ok(v) => events.push(Value::List(vec![Value::F64(t), Value::U64(minor), v])),
                    Err(e) => save_err = Some(e),
                }
            }
            self.engine.schedule_keyed(t, minor, ev);
        }
        if let Some(e) = save_err {
            return Err(e);
        }
        let sources = self
            .sources
            .iter()
            .map(|slot| {
                Ok(Value::map(vec![
                    (
                        "src",
                        match &slot.src {
                            Some(s) => s.save_state()?,
                            None => Value::Null,
                        },
                    ),
                    ("route", save_route(&slot.route)),
                    ("flow", Value::U64(u64::from(slot.flow))),
                    ("live", Value::Bool(slot.live)),
                    ("started", Value::Bool(slot.started)),
                ]))
            })
            .collect::<Result<Vec<_>, SnapError>>()?;
        let flow_owner = self
            .flow_owner
            .iter()
            .map(|(&flow, &idx)| {
                Value::List(vec![Value::U64(u64::from(flow)), Value::U64(idx as u64)])
            })
            .collect();
        let cmd_errors = self
            .command_errors
            .iter()
            .map(|(t, e)| Value::List(vec![Value::F64(*t), save_error(e)]))
            .collect();
        let injector = match &self.injector {
            Some(inj) => inj.save_state()?,
            None => Value::Null,
        };
        Ok(Value::map(vec![
            ("v", Value::U64(SNAPSHOT_VERSION)),
            ("now", Value::F64(now)),
            ("links", Value::List(links)),
            ("events", Value::List(events)),
            ("sources", Value::List(sources)),
            ("flow_owner", Value::List(flow_owner)),
            ("stats", self.stats.save_state()),
            (
                "policy",
                Value::List(vec![
                    Value::U64(u64::from(self.policy.quarantine_after)),
                    Value::U64(u64::from(self.policy.halt_after)),
                ]),
            ),
            ("escalation", self.escalation.save_state()),
            ("halted", Value::Bool(self.halted)),
            ("inflight", Value::I64(self.inflight_bytes)),
            ("cmd_errors", Value::List(cmd_errors)),
            ("injector", injector),
        ]))
    }

    /// Restores state captured by [`Network::snapshot`].
    ///
    /// The target must have the same link topology (same `add_link`
    /// sequence with identically configured hierarchies). Source slots and
    /// hierarchy leaves may differ by *churn*: a rollback discards slots
    /// and leaves the live network gained after the checkpoint, a resume
    /// re-creates ones the snapshot gained after the target was built. An
    /// installed fault injector must match the snapshot (state is loaded
    /// into it; an injector cannot be conjured from a snapshot alone).
    ///
    /// On error the network may be partially restored; callers treat that
    /// as fatal for the run (the crash-recovery supervisor escalates to a
    /// typed halt).
    pub fn restore(&mut self, snap: &Value) -> Result<(), SnapError> {
        if self.shard.is_some() {
            return Err(err("cannot restore into a shard of a parallel run".into()));
        }
        let version = snap.get("v")?.as_u64()?;
        if version != SNAPSHOT_VERSION {
            return Err(err(format!(
                "snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let now = snap.get("now")?.as_f64()?;
        let links_v = snap.get("links")?.items()?;
        if links_v.len() != self.links.len() {
            return Err(err(format!(
                "snapshot has {} links but the network has {}",
                links_v.len(),
                self.links.len()
            )));
        }
        for (i, lv) in links_v.iter().enumerate() {
            let Some(l) = self.links[i].as_mut() else {
                return Err(err(format!("network link {i} is a shard hole")));
            };
            if lv.is_null() {
                return Err(err(format!("snapshot link {i} is a shard hole")));
            }
            l.server.load_state(lv.get("server")?)?;
            l.server.observer_mut().rewind(lv.get("obs")?);
            l.rate = lv.get("rate")?.as_f64()?;
            l.tx_start = lv.get("tx_start")?.as_f64()?;
            l.tx_epoch = lv.get("tx_epoch")?.as_u64()?;
            l.tx_remaining_bits = lv.get("tx_remaining_bits")?.as_f64()?;
            l.tx_updated = lv.get("tx_updated")?.as_f64()?;
            l.ledger = load_ledger(lv.get("ledger")?)?;
        }
        // Clock before queue: `schedule_keyed` clamps against `now`, so the
        // clock must be rolled back before snapshot events are re-inserted.
        let _ = self.engine.drain_ordered();
        self.engine.reset_to(now);
        for entry in snap.get("events")?.items()? {
            let f = fixed_list(entry, 3, "event entry")?;
            self.engine
                .schedule_keyed(f[0].as_f64()?, f[1].as_u64()?, load_event(&f[2])?);
        }
        // Source slots are append-only in both directions of time:
        // truncate rollback surplus, rebuild everything else wholesale
        // from the snapshot (generator state, cursors, RNG streams).
        let sources_v = snap.get("sources")?.items()?;
        self.sources.truncate(sources_v.len());
        for (i, sv) in sources_v.iter().enumerate() {
            let src = {
                let raw = sv.get("src")?;
                if raw.is_null() {
                    None
                } else {
                    Some(load_source(raw)?)
                }
            };
            let slot = SourceSlot {
                src,
                route: load_route(sv.get("route")?)?,
                flow: sv.get("flow")?.as_u32()?,
                live: sv.get("live")?.as_bool()?,
                started: sv.get("started")?.as_bool()?,
            };
            if i < self.sources.len() {
                self.sources[i] = slot;
            } else {
                self.sources.push(slot);
            }
        }
        self.flow_owner.clear();
        for pair in snap.get("flow_owner")?.items()? {
            let f = fixed_list(pair, 2, "flow-owner entry")?;
            self.flow_owner.insert(f[0].as_u32()?, f[1].as_usize()?);
        }
        self.stats.load_state(snap.get("stats")?)?;
        let policy = fixed_list(snap.get("policy")?, 2, "escalation policy")?;
        self.policy.quarantine_after = policy[0].as_u32()?;
        self.policy.halt_after = policy[1].as_u32()?;
        self.escalation.load_state(snap.get("escalation")?)?;
        self.halted = snap.get("halted")?.as_bool()?;
        self.inflight_bytes = snap.get("inflight")?.as_i64()?;
        self.command_errors.clear();
        for pair in snap.get("cmd_errors")?.items()? {
            let f = fixed_list(pair, 2, "command-error entry")?;
            self.command_errors
                .push((f[0].as_f64()?, load_error(&f[1])?));
        }
        let inj_state = snap.get("injector")?;
        match (&mut self.injector, inj_state.is_null()) {
            (None, true) => {}
            (Some(inj), false) => inj.load_state(inj_state)?,
            (None, false) => {
                return Err(err(
                    "snapshot carries fault-injector state but none is installed; \
                     install a matching injector before restoring"
                        .into(),
                ));
            }
            (Some(_), true) => {
                return Err(err(
                    "a fault injector is installed but the snapshot has none".into(),
                ));
            }
        }
        Ok(())
    }
}
