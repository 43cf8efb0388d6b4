//! The discrete-event engine.
//!
//! [`Sim`] partitions its nodes into **shards**. Each shard owns its nodes'
//! behaviour, RNG streams, timers, outgoing link directions, and a local
//! calendar event queue. Events are ordered by a canonical key
//! `(time, source, sequence)` ([`crate::queue::EventKey`]) where the
//! sequence number is per *source* (node or external scheduler), never a
//! global insertion counter — so the total order over events is a pure
//! function of the workload and does not depend on how many shards execute
//! it. That is the invariant that makes `--shards N` byte-identical to
//! `--shards 1` for every exported artifact.
//!
//! Execution modes:
//!
//! - **Serial** (tracing enabled, or a zero-latency cross-shard link): pop
//!   the globally smallest key, one event at a time — the classic loop.
//! - **Windowed** (conservative lookahead): shards advance together
//!   through windows `[N, E)` where `E − N` is bounded by the minimum
//!   cross-shard link latency. A packet sent during a window arrives no
//!   earlier than its link's latency after the send, i.e. at or after `E`,
//!   so shards cannot affect each other *within* a window; cross-shard
//!   deliveries ride an outbox and merge into the destination queues at
//!   the barrier. Faults and metrics samples are applied only at barriers,
//!   which the window bound also respects. A single shard has no
//!   cross-shard links, so its window runs inline up to the next fault,
//!   deadline or metrics tick.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdv_metrics::{MetricSet, MetricsConfig};
use rdv_trace::{
    DropReason, EventId, EventKind as TraceKind, FaultKind, FlightRing, SampleSpec, TraceCtx,
    Tracer, ENGINE_NODE,
};

use crate::audit::{ShardAudit, ShardAuditKind, ShardAuditViolation};
use crate::fault::{FaultEvent, FaultPlan};
use crate::flight;
use crate::link::{Direction, Link, LinkId, LinkRate, LinkSpec};
use crate::node::{push_flood, Node, NodeCtx, NodeId, PortId, TimerAction, SEND_AFTER_TAG};
use crate::packet::Packet;
use crate::queue::{CalendarQueue, EventKey, QueueStats};
use crate::stats::{
    Counters, ENGINE_OUTPUT_SLOTS, ENGINE_SLOTS, ENGINE_SLOT_IDS, SIM_DELIVERIES_DROPPED_CRASH,
    SIM_EVENTS, SIM_FAULTS_APPLIED, SIM_PACKETS_DELIVERED, SIM_PACKETS_DROPPED,
    SIM_PACKETS_DROPPED_BAD_PORT, SIM_PACKETS_DROPPED_DEAD_NODE, SIM_PACKETS_DROPPED_LINK_DOWN,
    SIM_PACKETS_DROPPED_PARTITION, SIM_PACKETS_LOST, SIM_PACKETS_SENT,
    SIM_SHARD_QUEUE_PUSHES_CURRENT, SIM_SHARD_QUEUE_PUSHES_OVERFLOW, SIM_SHARD_QUEUE_PUSHES_RING,
    SIM_SHARD_QUEUE_RUN_MAX, SIM_SHARD_WINDOWS, SIM_SHARD_WORKER_SPAWNS, SIM_SHARD_XSHARD_PACKETS,
    SIM_TIMERS, SIM_TIMERS_DROPPED_CRASH,
};
use crate::time::SimTime;

/// Process-wide default shard count, used when [`SimConfig::shards`] is 0.
/// Harnesses (e.g. `figures --shards N`) set this once at startup so every
/// scenario they build inherits the setting without plumbing a parameter
/// through each constructor.
static DEFAULT_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the process-wide default shard count (clamped to ≥ 1). Only affects
/// simulations created afterwards with [`SimConfig::shards`] = 0.
pub fn set_default_shards(n: usize) {
    DEFAULT_SHARDS.store(n.max(1), Ordering::Relaxed);
}

/// The current process-wide default shard count.
pub fn default_shards() -> usize {
    DEFAULT_SHARDS.load(Ordering::Relaxed).max(1)
}

/// Arm the shard-ownership race detector on every simulation created
/// afterwards — how suites whose scenarios build simulations internally
/// (chaos soak, shard-determinism, CI audit runs) run with
/// [`Sim::enable_shard_audit`] on without plumbing a flag through each
/// constructor. Mirrors [`set_default_shards`].
static DEFAULT_SHARD_AUDIT: AtomicUsize = AtomicUsize::new(0);

/// Set whether newly created simulations arm the shard-ownership race
/// detector by default (see [`Sim::enable_shard_audit`]).
pub fn set_default_shard_audit(on: bool) {
    DEFAULT_SHARD_AUDIT.store(usize::from(on), Ordering::Relaxed);
}

/// The current process-wide shard-audit default.
pub fn default_shard_audit() -> bool {
    DEFAULT_SHARD_AUDIT.load(Ordering::Relaxed) != 0
}

/// Per-node RNG stream seed: the root seed xored with a golden-ratio
/// multiple of the node id. `StdRng::seed_from_u64` runs SplitMix64 over
/// this, so consecutive node ids get well-separated streams. Per-node
/// streams (rather than one engine-wide RNG) are what keep draws
/// byte-identical for any shard count.
fn node_stream_seed(root: u64, gid: u64) -> u64 {
    root ^ 0x9E3779B97F4A7C15u64.wrapping_mul(gid + 1)
}

/// Fallback calendar-queue geometry for shard event queues (no links, or
/// a zero-latency link): 4096 ns buckets, 512 buckets ≈ 2 ms of ring
/// horizon — comfortably covering rack/edge latencies and protocol
/// timers; anything farther parks in the overflow heap.
const QUEUE_BUCKET_WIDTH_NS: u64 = 1 << 12;
const QUEUE_BUCKETS: usize = 512;
/// Ring horizon every derived geometry keeps (≈ 2 ms, as above).
const QUEUE_HORIZON_NS: u64 = QUEUE_BUCKET_WIDTH_NS * QUEUE_BUCKETS as u64;
/// Ring-size ceiling, so nanosecond links cannot blow the ring up.
const QUEUE_MAX_BUCKETS: u64 = 8192;

/// Calendar geometry `(bucket width ns, buckets)` for a fabric whose
/// fastest link takes `min_latency_ns`. The width is that latency floored
/// to a power of two, so a delivery — due at least one link latency after
/// the event that sent it — always lands in a later bucket than the
/// current one, and a same-instant wave of deliveries is sorted once as
/// a run instead of heap-ordered push by push. The ring keeps the ≈ 2 ms
/// horizon, capped at [`QUEUE_MAX_BUCKETS`].
fn queue_geometry(min_latency_ns: Option<u64>) -> (u64, usize) {
    match min_latency_ns {
        Some(lat) if lat > 0 => {
            let width = 1u64 << lat.ilog2();
            (width, (QUEUE_HORIZON_NS / width).clamp(1, QUEUE_MAX_BUCKETS) as usize)
        }
        _ => (QUEUE_BUCKET_WIDTH_NS, QUEUE_BUCKETS),
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for the per-node RNG streams handed to nodes.
    pub seed: u64,
    /// Safety valve: abort after this many events (guards against event
    /// storms in buggy protocols). Generous default.
    pub max_events: u64,
    /// Number of shards to partition nodes across. 0 (the default) means
    /// "inherit the process-wide default" (see [`set_default_shards`]);
    /// any other value is used as-is. Results are byte-identical for
    /// every value.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0, max_events: 200_000_000, shards: 0 }
    }
}

#[derive(Debug)]
enum EvKind {
    /// `epoch` is the destination node's crash epoch at scheduling time;
    /// the event is discarded if the node crashed in the interim.
    Deliver {
        node: u32,
        port: u32,
        packet: Packet,
        epoch: u32,
    },
    Timer {
        node: u32,
        tag: u64,
        epoch: u32,
    },
    /// A timer-class event of the sending `node` that, when it fires,
    /// transmits `packet` as [`NodeCtx::send`] on `port` would, or with
    /// `flood` as [`NodeCtx::flood`] excepting `port` would (`NO_PORT`:
    /// none).
    SendAfter {
        node: u32,
        port: u32,
        flood: bool,
        packet: Packet,
        epoch: u32,
    },
}

/// [`EvKind::SendAfter`]'s "no port" for a flood that excepts none.
const NO_PORT: u32 = u32::MAX;

/// Queue payload: the event plus its trace provenance (the recorded event
/// that scheduled it — a packet's transmit, a timer's set).
#[derive(Debug)]
struct EvData {
    kind: EvKind,
    trace: Option<EventId>,
}

/// A fault event with link endpoints already resolved to a [`LinkId`] and
/// partitions registered, so applying one is a constant-time state flip.
#[derive(Debug)]
enum FaultAction {
    LinkState { link: LinkId, down: bool },
    LossOverride { link: LinkId, loss: Option<u16> },
    PartitionOn { id: usize },
    PartitionOff { id: usize },
    Crash { node: NodeId },
    Restart { node: NodeId },
}

/// A registered partition: two node groups whose cross traffic is blocked
/// while `active`.
#[derive(Debug)]
struct Partition {
    left: Vec<NodeId>,
    right: Vec<NodeId>,
    active: bool,
}

impl Partition {
    /// True when `a` and `b` fall on opposite sides of this cut.
    fn separates(&self, a: NodeId, b: NodeId) -> bool {
        (self.left.contains(&a) && self.right.contains(&b))
            || (self.left.contains(&b) && self.right.contains(&a))
    }
}

/// Faults live on a coordinator-level heap, not in shard queues: they
/// mutate global state (link flags, liveness, partitions), so the engine
/// applies them only at window barriers, before any event at an equal or
/// later time.
struct FaultEntry {
    at: SimTime,
    seq: u64,
    action: FaultAction,
}

impl PartialEq for FaultEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for FaultEntry {}
impl PartialOrd for FaultEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FaultEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Topology and fault state shared read-only by all shards during a
/// window. Mutated only between windows (faults, wiring).
struct Globals {
    links: Vec<Link>,
    /// Per node: port index → link.
    ports: Vec<Vec<LinkId>>,
    /// Per node: is the network stack up? Crashed nodes receive nothing.
    alive: Vec<bool>,
    /// Per node: crash epoch. Bumped on every crash so events scheduled
    /// before the crash can be recognized and discarded on pop. `u32`
    /// keeps every event payload at the 56 bytes of a delivery.
    epochs: Vec<u32>,
    /// Registered partitions (from installed fault plans).
    partitions: Vec<Partition>,
    /// Number of currently active partitions — lets the per-send check
    /// stay a single integer compare when no partition is live.
    active_partitions: usize,
    /// Per node: (owning shard, local index within it).
    node_loc: Vec<(u32, u32)>,
    /// Per link: each direction's slot in its owner shard's `dirs` arena.
    /// Direction `d` is owned by the shard of `links[l].ends[d].0` — only
    /// the *source* node of a direction ever writes it, so ownership
    /// follows the sender.
    dir_slot: Vec<[u32; 2]>,
    /// Per node: trace/flight id of the most recent crash fault, for the
    /// fault→dropped-delivery aux edge. Lives here (not on [`Sim`]) so
    /// both the serial tracer path and flight-recording parallel windows
    /// can read it; like all of [`Globals`], it is mutated only between
    /// windows (faults apply at barriers).
    crash_trace: Vec<Option<EventId>>,
    /// Per link: trace/flight id of the most recent link-state fault.
    link_fault_trace: Vec<Option<EventId>>,
    /// Per partition: trace/flight id of the fault that activated it.
    partition_fault_trace: Vec<Option<EventId>>,
}

impl Globals {
    /// The index of an active partition separating `a` from `b`, if any.
    fn blocking_partition(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.partitions.iter().position(|p| p.active && p.separates(a, b))
    }
}

/// One spatial partition of the simulation: the nodes it owns, their RNG
/// streams and timers, the link directions they transmit on, and a local
/// event queue. During a parallel window a worker thread owns the shard
/// exclusively and reads [`Globals`] immutably.
struct Shard {
    idx: usize,
    /// Local index → global node id.
    gids: Vec<u32>,
    nodes: Vec<Box<dyn Node>>,
    rngs: Vec<StdRng>,
    /// Per local node: events scheduled so far — the per-source sequence
    /// component of [`EventKey`], independent of shard layout.
    node_seq: Vec<u64>,
    /// Per local node: timers armed and not yet fired or discarded, for
    /// the `node.pending_timers` gauge.
    pending_timers: Vec<u64>,
    /// Direction arena for links whose source node lives here.
    dirs: Vec<Direction>,
    queue: CalendarQueue<EvData>,
    /// This shard's slice of the engine counters; folded into
    /// [`Sim::counters`] at barriers.
    counters: Counters,
    /// Packets admitted here minus packets delivered/dropped here. Signed:
    /// a receiver decrements what a cross-shard sender incremented, so
    /// only the sum over shards is meaningful.
    inflight: i64,
    /// Time of the last event this shard processed (ns).
    clock_ns: u64,
    /// Events processed in the current window (collected at the barrier).
    window_done: u64,
    /// Cross-shard sends buffered during a window: (destination shard,
    /// key, event), merged into destination queues at the barrier.
    outbox: Vec<(u32, EventKey, EvData)>,
    /// Scratch buffers lent to [`NodeCtx`] for each callback, so the event
    /// loop allocates nothing in steady state. Each entry carries the
    /// causal provenance snapshotted when the node queued it.
    scratch_sends: Vec<(PortId, Packet, Option<EventId>)>,
    scratch_timers: Vec<(SimTime, TimerAction, Option<EventId>)>,
    /// Flight-recorder ring for this shard (see
    /// [`Sim::enable_flight_recorder`]). Unlike the tracer, it records
    /// during parallel windows too — ids are namespaced per ring, so no
    /// cross-thread coordination is needed.
    flight: Option<FlightRing>,
    /// Ownership race detector state (see [`Sim::enable_shard_audit`]).
    /// `None` unless armed: every check site costs one `is_some` branch.
    audit: Option<Box<ShardAudit>>,
}

impl Shard {
    fn new(idx: usize) -> Shard {
        Shard {
            idx,
            gids: Vec::new(),
            nodes: Vec::new(),
            rngs: Vec::new(),
            node_seq: Vec::new(),
            pending_timers: Vec::new(),
            dirs: Vec::new(),
            queue: CalendarQueue::new(QUEUE_BUCKET_WIDTH_NS, QUEUE_BUCKETS),
            counters: Counters::new(),
            inflight: 0,
            clock_ns: 0,
            window_done: 0,
            outbox: Vec::new(),
            scratch_sends: Vec::new(),
            scratch_timers: Vec::new(),
            flight: None,
            audit: None,
        }
    }

    /// Record an engine event into whichever back-end is live: the tracer
    /// when one is threaded in (serial execution only), else this shard's
    /// flight-recorder ring, else nowhere. In selective-tracing mode a
    /// causeless event belongs to no sampled chain and is dropped — that
    /// single branch is what keeps off-chain traffic free.
    fn ev_rec(
        &mut self,
        hooks: &mut Option<&mut Tracer>,
        at: u64,
        node: u32,
        kind: TraceKind,
        cause: Option<EventId>,
        aux: Option<EventId>,
    ) -> Option<EventId> {
        match hooks.as_deref_mut() {
            Some(t) => {
                if t.is_selective() && cause.is_none() {
                    return None;
                }
                t.record(at, node, kind, cause, aux)
            }
            None => self.flight.as_mut().map(|f| f.record(at, node, kind, cause, aux)),
        }
    }

    /// shard-audit: tag the event being executed and assert this shard
    /// owns its destination node's state. A mis-routed event (the bug an
    /// outbox bypass plants) surfaces here even if the bypass itself went
    /// unobserved — the non-owner ends up executing it.
    #[track_caller]
    fn audit_begin_event(&mut self, g: &Globals, key: EventKey, node: u32) {
        let Some(a) = self.audit.as_deref_mut() else { return };
        a.current = Some(key);
        let owner = g.node_loc[node as usize].0;
        if owner != self.idx as u32 {
            a.record(
                ShardAuditKind::ForeignState,
                key.at,
                self.idx as u32,
                owner,
                format!("executed an event for node {node}, whose state shard {owner} owns"),
            );
        }
    }

    /// shard-audit: resolve the RNG slot for a dispatch (applying any
    /// seeded alias fault) and assert the stream belongs to the node
    /// being dispatched. Returns the slot the dispatch must draw from.
    #[track_caller]
    fn audit_check_rng(&mut self, gid: u32, local: usize) -> usize {
        let Some(a) = self.audit.as_deref_mut() else { return local };
        let slot = match a.rng_alias {
            Some((from, to)) if from == local => to,
            _ => local,
        };
        let owner = a.rng_owner[slot];
        if owner != gid {
            let at = self.clock_ns;
            let shard = self.idx as u32;
            a.record(
                ShardAuditKind::RngStreamShared,
                at,
                shard,
                shard,
                format!("dispatch for node {gid} drew from the RNG stream owned by node {owner}"),
            );
        }
        slot
    }

    /// shard-audit: vet one routed send. Applies any seeded fault (outbox
    /// bypass, lookahead violation), then asserts the cross-shard
    /// discipline: an event pushed onto the local queue must target a
    /// node this shard owns, and a cross-shard event produced inside a
    /// parallel window must be due no earlier than the window's end (the
    /// conservative-lookahead contract). Returns whether the event goes
    /// onto the local queue.
    #[track_caller]
    fn audit_route_send(
        &mut self,
        key: &mut EventKey,
        dst: u32,
        dst_shard: u32,
        to_self: bool,
    ) -> bool {
        let Some(a) = self.audit.as_deref_mut() else { return to_self };
        let mut to_self = to_self;
        if a.fault_bypass_outbox && !to_self {
            // Seeded bug: skip the outbox and push straight onto our
            // own queue, as a broken routing path would.
            a.fault_bypass_outbox = false;
            to_self = true;
        }
        if a.fault_violate_lookahead && !to_self && a.in_window {
            // Seeded bug: schedule the cross-shard arrival "now",
            // ignoring the link latency that funds the lookahead.
            a.fault_violate_lookahead = false;
            key.at = self.clock_ns;
        }
        if to_self {
            if dst_shard != self.idx as u32 {
                a.record(
                    ShardAuditKind::OutboxBypass,
                    key.at,
                    self.idx as u32,
                    dst_shard,
                    format!(
                        "event for node {dst} (owned by shard {dst_shard}) pushed onto shard {}'s \
                         local queue, skipping the outbox barrier",
                        self.idx
                    ),
                );
            }
        } else if a.in_window && key.at < a.window_end_ns {
            a.record(
                ShardAuditKind::LookaheadViolation,
                key.at,
                self.idx as u32,
                dst_shard,
                format!(
                    "cross-shard event for node {dst} due at t={}ns, inside the current window \
                     (end {}ns) — the destination may already have executed past it",
                    key.at, a.window_end_ns
                ),
            );
        }
        to_self
    }

    /// shard-audit: assert a timer being armed belongs to a node this
    /// shard owns (timers are always local state; a foreign one means
    /// the dispatch itself ran on the wrong shard).
    #[track_caller]
    fn audit_check_timer(&mut self, g: &Globals, gid: u32, at: u64) {
        let Some(a) = self.audit.as_deref_mut() else { return };
        let owner = g.node_loc[gid as usize].0;
        if owner != self.idx as u32 {
            a.record(
                ShardAuditKind::ForeignState,
                at,
                self.idx as u32,
                owner,
                format!("armed a timer for node {gid}, whose state shard {owner} owns"),
            );
        }
    }

    /// Next event key for an event sourced by local node `local` (global
    /// id `gid`). Source 0 is reserved for the external scheduler.
    fn next_key(&mut self, at: u64, gid: u32, local: usize) -> EventKey {
        let seq = self.node_seq[local];
        self.node_seq[local] += 1;
        EventKey { at, src: gid + 1, seq }
    }

    /// Process queued events with `at < end_ns`, up to `cap` of them.
    fn process_window(&mut self, g: &Globals, end_ns: u64, cap: u64) {
        let mut done = 0u64;
        while done < cap {
            match self.queue.peek() {
                Some(k) if k.at < end_ns => {}
                _ => break,
            }
            self.process_one(g, &mut None);
            done += 1;
        }
        self.window_done = done;
    }

    /// Pop and execute the shard's smallest event. The caller must have
    /// peeked a key.
    fn process_one(&mut self, g: &Globals, hooks: &mut Option<&mut Tracer>) {
        let (key, ev) = self.queue.pop().expect("caller peeked an event");
        debug_assert!(key.at >= self.clock_ns, "time must not run backwards");
        self.clock_ns = key.at;
        if self.audit.is_some() {
            let node = match &ev.kind {
                EvKind::Deliver { node, .. }
                | EvKind::Timer { node, .. }
                | EvKind::SendAfter { node, .. } => *node,
            };
            self.audit_begin_event(g, key, node);
        }
        self.counters.inc_id(SIM_EVENTS);
        match ev.kind {
            EvKind::Deliver { node, port, packet, epoch } => {
                self.inflight -= 1;
                let gid = node as usize;
                if !g.alive[gid] || epoch != g.epochs[gid] {
                    // Destination crashed after admission: the packet
                    // evaporates with the incarnation it targeted.
                    self.counters.inc_id(SIM_DELIVERIES_DROPPED_CRASH);
                    let fault = g.crash_trace[gid];
                    self.ev_rec(
                        hooks,
                        key.at,
                        node,
                        TraceKind::PacketDrop(DropReason::Crash),
                        ev.trace,
                        fault,
                    );
                } else {
                    self.counters.inc_id(SIM_PACKETS_DELIVERED);
                    let deliver = self.ev_rec(
                        hooks,
                        key.at,
                        node,
                        TraceKind::PacketDeliver { port },
                        ev.trace,
                        None,
                    );
                    let port = PortId(port as usize);
                    self.dispatch(g, node, deliver, hooks, |n, ctx| n.on_packet(ctx, port, packet));
                }
            }
            EvKind::Timer { node, tag, epoch } => {
                if let Some(fire) = self.fire_timer(g, hooks, key.at, node, tag, epoch, ev.trace) {
                    self.dispatch(g, node, fire, hooks, |n, ctx| n.on_timer(ctx, tag));
                }
            }
            EvKind::SendAfter { node, port, flood, packet, epoch } => {
                let tag = SEND_AFTER_TAG;
                let Some(fire) = self.fire_timer(g, hooks, key.at, node, tag, epoch, ev.trace)
                else {
                    return;
                };
                // Admit it exactly as a send/flood queued by a callback of
                // `node` at this instant, caused by the fire.
                let mut sends = std::mem::take(&mut self.scratch_sends);
                let port = (port != NO_PORT).then_some(PortId(port as usize));
                if flood {
                    push_flood(&mut sends, g.ports[node as usize].len(), &packet, port, fire);
                } else if let Some(port) = port {
                    sends.push((port, packet, fire));
                }
                let local = g.node_loc[node as usize].1 as usize;
                self.apply_actions(g, node, local, hooks, &mut sends, &mut Vec::new());
                self.scratch_sends = sends;
            }
        }
    }

    /// Retire a timer-class event of `node`: counted as fired and traced
    /// as `timer.fire` when the node is still the incarnation that armed
    /// it, else counted and traced as a crash drop. Returns the fire's
    /// trace id (the cause of whatever the fire does), or `None` when the
    /// event was dropped.
    #[allow(clippy::too_many_arguments)]
    fn fire_timer(
        &mut self,
        g: &Globals,
        hooks: &mut Option<&mut Tracer>,
        at: u64,
        node: u32,
        tag: u64,
        epoch: u32,
        set: Option<EventId>,
    ) -> Option<Option<EventId>> {
        let gid = node as usize;
        let local = g.node_loc[gid].1 as usize;
        self.pending_timers[local] -= 1;
        if !g.alive[gid] || epoch != g.epochs[gid] {
            self.counters.inc_id(SIM_TIMERS_DROPPED_CRASH);
            let fault = g.crash_trace[gid];
            self.ev_rec(hooks, at, node, TraceKind::TimerDrop { tag }, set, fault);
            return None;
        }
        self.counters.inc_id(SIM_TIMERS);
        Some(self.ev_rec(hooks, at, node, TraceKind::TimerFire { tag }, set, None))
    }

    /// Run one node callback against the shard-owned scratch buffers and
    /// apply whatever it queued. The buffers are `mem::take`n around the
    /// callback so their capacity is reused event after event — the loop's
    /// steady state performs no heap allocation.
    fn dispatch(
        &mut self,
        g: &Globals,
        gid: u32,
        cause: Option<EventId>,
        hooks: &mut Option<&mut Tracer>,
        f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    ) {
        let local = g.node_loc[gid as usize].1 as usize;
        let rng_slot = if self.audit.is_some() { self.audit_check_rng(gid, local) } else { local };
        let mut sends = std::mem::take(&mut self.scratch_sends);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        sends.clear();
        timers.clear();
        {
            let trace = TraceCtx::new(hooks.as_deref_mut(), self.clock_ns, gid, cause)
                .with_flight(self.flight.as_mut());
            let mut ctx = NodeCtx::new(
                NodeId(gid as usize),
                SimTime::from_nanos(self.clock_ns),
                g.ports[gid as usize].len(),
                &mut self.rngs[rng_slot],
                trace,
                &mut sends,
                &mut timers,
            );
            f(self.nodes[local].as_mut(), &mut ctx);
        }
        self.apply_actions(g, gid, local, hooks, &mut sends, &mut timers);
        self.scratch_sends = sends;
        self.scratch_timers = timers;
    }

    /// Admit queued sends onto their links, then arm queued timers and
    /// delayed sends in call order (delayed sends as `timer.set` under
    /// [`SEND_AFTER_TAG`]). Each queued action carries the causal
    /// provenance snapshotted when the node issued it — the dispatch event
    /// in full-trace mode, the live span anchor in sampled mode.
    #[allow(clippy::too_many_arguments)]
    fn apply_actions(
        &mut self,
        g: &Globals,
        gid: u32,
        local: usize,
        hooks: &mut Option<&mut Tracer>,
        sends: &mut Vec<(PortId, Packet, Option<EventId>)>,
        timers: &mut Vec<(SimTime, TimerAction, Option<EventId>)>,
    ) {
        let now = SimTime::from_nanos(self.clock_ns);
        let now_ns = self.clock_ns;
        let from = NodeId(gid as usize);
        for (port, packet, cause) in sends.drain(..) {
            self.counters.inc_id(SIM_PACKETS_SENT);
            // The enqueue event roots this packet's causal chain at the
            // provenance the node captured when it sent.
            let enq = self.ev_rec(
                hooks,
                now_ns,
                gid,
                TraceKind::PacketEnqueue { port: port.0 as u32, bytes: packet.wire_len() as u32 },
                cause,
                None,
            );
            let Some(&link_id) = g.ports[gid as usize].get(port.0) else {
                self.counters.inc_id(SIM_PACKETS_DROPPED_BAD_PORT);
                self.ev_rec(
                    hooks,
                    now_ns,
                    gid,
                    TraceKind::PacketDrop(DropReason::BadPort),
                    enq,
                    None,
                );
                continue;
            };
            let link = &g.links[link_id.0];
            let Some((dir, dst, dst_port)) = link.direction_from(from, port) else {
                self.counters.inc_id(SIM_PACKETS_DROPPED_BAD_PORT);
                self.ev_rec(
                    hooks,
                    now_ns,
                    gid,
                    TraceKind::PacketDrop(DropReason::BadPort),
                    enq,
                    None,
                );
                continue;
            };
            // Fault gates, checked before the loss roll so injected faults
            // never perturb the RNG stream of surviving traffic paths.
            if link.down {
                self.counters.inc_id(SIM_PACKETS_DROPPED_LINK_DOWN);
                let fault = g.link_fault_trace[link_id.0];
                self.ev_rec(
                    hooks,
                    now_ns,
                    gid,
                    TraceKind::PacketDrop(DropReason::LinkDown),
                    enq,
                    fault,
                );
                continue;
            }
            let loss = link.loss_override.unwrap_or(link.spec.loss_permille);
            if !g.alive[dst.0] {
                self.counters.inc_id(SIM_PACKETS_DROPPED_DEAD_NODE);
                let fault = g.crash_trace[dst.0];
                self.ev_rec(
                    hooks,
                    now_ns,
                    gid,
                    TraceKind::PacketDrop(DropReason::DeadNode),
                    enq,
                    fault,
                );
                continue;
            }
            if g.active_partitions > 0 {
                if let Some(p) = g.blocking_partition(from, dst) {
                    self.counters.inc_id(SIM_PACKETS_DROPPED_PARTITION);
                    let fault = g.partition_fault_trace[p];
                    self.ev_rec(
                        hooks,
                        now_ns,
                        gid,
                        TraceKind::PacketDrop(DropReason::Partition),
                        enq,
                        fault,
                    );
                    continue;
                }
            }
            if loss > 0 {
                use rand::Rng;
                // The roll comes from the *sending* node's stream, so it
                // is independent of shard layout and of other nodes.
                if self.rngs[local].gen_range(0..1000u32) < u32::from(loss) {
                    self.counters.inc_id(SIM_PACKETS_LOST);
                    self.ev_rec(
                        hooks,
                        now_ns,
                        gid,
                        TraceKind::PacketDrop(DropReason::Loss),
                        enq,
                        None,
                    );
                    continue;
                }
            }
            let slot = g.dir_slot[link_id.0][dir] as usize;
            match self.dirs[slot].admit(&link.rate, link.spec.latency, now, packet.wire_len()) {
                Some(arrival) => {
                    self.inflight += 1;
                    let epoch = g.epochs[dst.0];
                    // Timestamp the transmit at serialization completion
                    // (arrival minus propagation), so queue wait and wire
                    // time separate cleanly on critical paths.
                    let trace = self.ev_rec(
                        hooks,
                        (arrival - link.spec.latency).as_nanos(),
                        gid,
                        TraceKind::PacketTransmit,
                        enq,
                        None,
                    );
                    let mut key = self.next_key(arrival.as_nanos(), gid, local);
                    let data = EvData {
                        kind: EvKind::Deliver {
                            node: dst.0 as u32,
                            port: dst_port.0 as u32,
                            packet,
                            epoch,
                        },
                        trace,
                    };
                    let dst_shard = g.node_loc[dst.0].0;
                    let mut to_self = dst_shard as usize == self.idx;
                    if self.audit.is_some() {
                        to_self = self.audit_route_send(&mut key, dst.0 as u32, dst_shard, to_self);
                    }
                    if to_self {
                        self.queue.push(key, data);
                    } else {
                        self.outbox.push((dst_shard, key, data));
                    }
                }
                None => {
                    self.counters.inc_id(SIM_PACKETS_DROPPED);
                    self.ev_rec(
                        hooks,
                        now_ns,
                        gid,
                        TraceKind::PacketDrop(DropReason::QueueFull),
                        enq,
                        None,
                    );
                }
            }
        }
        let epoch = g.epochs[gid as usize];
        for (at, action, cause) in timers.drain(..) {
            self.pending_timers[local] += 1;
            let (tag, kind) = match action {
                TimerAction::Tag(tag) => (tag, EvKind::Timer { node: gid, tag, epoch }),
                TimerAction::Send { port, flood, packet } => {
                    let port = port.map_or(NO_PORT, |p| p.0 as u32);
                    (SEND_AFTER_TAG, EvKind::SendAfter { node: gid, port, flood, packet, epoch })
                }
            };
            let trace = self.ev_rec(hooks, now_ns, gid, TraceKind::TimerSet { tag }, cause, None);
            let key = self.next_key(at.as_nanos(), gid, local);
            if self.audit.is_some() {
                self.audit_check_timer(g, gid, key.at);
            }
            self.queue.push(key, EvData { kind, trace });
        }
    }
}

/// The simulator.
pub struct Sim {
    cfg: SimConfig,
    nshards: usize,
    clock: SimTime,
    /// Sequence for externally scheduled timers ([`Sim::schedule`]), which
    /// use the reserved event-key source 0.
    ext_seq: u64,
    fault_seq: u64,
    globals: Globals,
    shards: Vec<Shard>,
    faults: BinaryHeap<Reverse<FaultEntry>>,
    /// Engine-level counters: `sim.events`, `sim.packets_sent`,
    /// `sim.packets_delivered`, `sim.packets_dropped`, `sim.timers`.
    /// Rebuilt from the per-shard slices at every barrier and at the end
    /// of each `run_until` call.
    pub counters: Counters,
    /// Counter contributions made by the coordinator itself (fault
    /// application), outside any shard.
    base_counters: Counters,
    /// Execution statistics (`sim.shard.*`): window count, cross-shard
    /// packets, worker spawns. Kept apart from [`Sim::counters`] because
    /// their values depend on `--shards`, and run output must not.
    exec: Counters,
    started: bool,
    /// Events processed so far — a plain field so the per-event budget
    /// check doesn't round-trip through the counter table.
    events: u64,
    /// Causal-trace recorder (see [`Sim::enable_trace`]). Disabled by
    /// default: every emission site is a single branch and nothing
    /// allocates. Enabling tracing forces serial execution.
    pub tracer: Tracer,
    /// Time-series telemetry plane (see [`Sim::enable_metrics`]).
    /// Disabled by default: the event loop pays one branch per iteration
    /// and nothing allocates.
    pub metrics: MetricSet,
    /// Emit per-shard `shard.*` gauges on each metrics tick. Off by
    /// default so committed metrics artifacts stay byte-identical across
    /// shard counts; see [`Sim::enable_shard_telemetry`].
    shard_telemetry: bool,
    /// Test-only imbalance injected by [`Sim::debug_leak_inflight`].
    inflight_leak: i64,
    /// Shard-ownership race detector armed (see
    /// [`Sim::enable_shard_audit`]). Off by default: every check site in
    /// the event loop is a single branch.
    audit_armed: bool,
    /// Minimum latency over cross-shard links (ns) — the conservative
    /// lookahead bound. `u64::MAX` when no link crosses shards.
    lookahead_ns: u64,
    /// A zero-latency link crosses shards: no safe lookahead exists, so
    /// execution stays serial.
    zero_lookahead: bool,
    /// Barrier merge scratch, reused window after window.
    merge_buf: Vec<(u32, EventKey, EvData)>,
    /// Coordinator flight-recorder ring (fault events, external
    /// schedules); `Some` iff the recorder is armed (see
    /// [`Sim::enable_flight_recorder`]). Shard rings live on the shards.
    flight_coord: Option<FlightRing>,
}

impl Sim {
    /// Create an empty simulation.
    pub fn new(cfg: SimConfig) -> Sim {
        let nshards = if cfg.shards == 0 { default_shards() } else { cfg.shards }.max(1);
        let mut sim = Sim {
            cfg,
            nshards,
            clock: SimTime::ZERO,
            ext_seq: 0,
            fault_seq: 0,
            globals: Globals {
                links: Vec::new(),
                ports: Vec::new(),
                alive: Vec::new(),
                epochs: Vec::new(),
                partitions: Vec::new(),
                active_partitions: 0,
                node_loc: Vec::new(),
                dir_slot: Vec::new(),
                crash_trace: Vec::new(),
                link_fault_trace: Vec::new(),
                partition_fault_trace: Vec::new(),
            },
            shards: (0..nshards).map(Shard::new).collect(),
            faults: BinaryHeap::new(),
            counters: Counters::new(),
            base_counters: Counters::new(),
            exec: Counters::new(),
            started: false,
            events: 0,
            tracer: Tracer::disabled(),
            metrics: MetricSet::disabled(),
            shard_telemetry: false,
            inflight_leak: 0,
            audit_armed: false,
            lookahead_ns: u64::MAX,
            zero_lookahead: false,
            merge_buf: Vec::new(),
            flight_coord: None,
        };
        if default_shard_audit() {
            sim.enable_shard_audit();
        }
        sim
    }

    /// Number of shards this simulation partitions its nodes across.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// Execution statistics (`sim.shard.windows`, `sim.shard.
    /// xshard_packets`, `sim.shard.worker_spawns`, and the event queues'
    /// `sim.shard.queue_pushes_{current,ring,overflow}` and
    /// `sim.shard.queue_run_max`). These describe *how* the run executed,
    /// not *what* it simulated — they vary with `--shards` and are
    /// therefore never folded into [`Sim::counters`].
    pub fn exec_stats(&self) -> &Counters {
        &self.exec
    }

    /// Emit per-shard `shard.queue_events` / `shard.clock_ns` gauges
    /// (instances `s0`, `s1`, …) on each metrics tick. Off by default:
    /// these gauges depend on the shard count, so committed metrics
    /// artifacts leave them disabled to stay byte-identical across
    /// `--shards`.
    pub fn enable_shard_telemetry(&mut self) {
        self.shard_telemetry = true;
    }

    /// Turn on causal tracing, retaining the most recent `capacity`
    /// events. Call before running; the recorded stream (ids included) is
    /// deterministic per seed. Tracing forces serial execution (the trace
    /// stream is a total order), which cannot change simulation results —
    /// only wall-clock speed.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// Turn on *sampled* causal tracing: only operation chains rooted by a
    /// winning [`TraceCtx::sample`] verdict are recorded, per `spec`.
    /// Verdicts are pure in `(seed, class, origin)` — never in ring
    /// occupancy or shard layout — so the sampled trace bytes are
    /// identical across `--shards` counts and processes. Like full
    /// tracing, this forces serial execution; unlike full tracing, the
    /// ring holds a uniform slice of operations instead of the most
    /// recent burst, which is what tail-attribution figures (F8) join
    /// against SLO windows.
    pub fn enable_trace_sampled(&mut self, capacity: usize, spec: SampleSpec) {
        self.tracer = Tracer::sampled(capacity, spec);
    }

    /// Arm the crash flight recorder: every shard gets an always-on
    /// last-`capacity`-events ring (plus one at the coordinator for fault
    /// events and external schedules). On any invariant-monitor failure or
    /// [`ShardAuditViolation`], the panic carries a rendered postmortem —
    /// the causal ancestry of the failing event walked across rings, a
    /// gauge snapshot, and per-shard window state — instead of a bare
    /// message.
    ///
    /// The recorder observes only: rings record what already happened,
    /// `flight.*` counters move only when a dump is rendered, and
    /// recording works inside parallel windows (ids are namespaced per
    /// ring), so arming it on a clean run changes zero output bytes and
    /// never forces serial execution. Mutually exclusive with tracing by
    /// construction: when a tracer is enabled it takes precedence at
    /// every recording site.
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.flight_coord = Some(FlightRing::new(flight::COORD_BASE, capacity));
        for s in self.shards.iter_mut() {
            s.flight = Some(FlightRing::new(flight::shard_base(s.idx), capacity));
        }
    }

    /// True when the crash flight recorder is armed.
    pub fn flight_recorder_enabled(&self) -> bool {
        self.flight_coord.is_some()
    }

    /// Extract the tracer, leaving a disabled one behind — how harnesses
    /// keep the trace after the simulation is dropped.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Turn on metrics sampling (and, per `cfg`, the invariant monitor).
    /// Call before running. Sampling reads state only — no events are
    /// scheduled and no RNG is drawn — so enabling metrics never perturbs
    /// the simulation. Samples are taken at window barriers; the window
    /// bound respects tick boundaries, so sampled values are identical
    /// for every shard count.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        self.metrics = MetricSet::enabled(cfg);
    }

    /// Extract the metric set, leaving a disabled one behind — how
    /// harnesses keep the series after the simulation is dropped.
    pub fn take_metrics(&mut self) -> MetricSet {
        std::mem::replace(&mut self.metrics, MetricSet::disabled())
    }

    /// Take any samples still due up to and including `until` — for
    /// harnesses that want the tail of a run (after the last event)
    /// covered before exporting.
    pub fn flush_metrics(&mut self, until: SimTime) {
        if self.metrics.is_enabled() {
            self.pump_metrics(until.as_nanos().saturating_add(1));
        }
    }

    /// Deliberately unbalance the in-flight packet account — the
    /// test-only hook seeded-violation tests use to prove the
    /// packet-conservation audit fires. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_leak_inflight(&mut self) {
        self.inflight_leak += 1;
    }

    /// Arm the shard-ownership race detector (the dynamic half of
    /// rdv-audit; see `DESIGN.md §11` and [`crate::audit`]). Every
    /// mutable access to node, link, timer, RNG, and queue state is
    /// tagged with its `(shard, window)` and checked at the access site:
    /// only the owner shard may touch it, cross-shard effects must route
    /// through the outbox barrier, and cross-shard schedule times must
    /// respect the conservative-lookahead bound. The first violation
    /// aborts the run via [`std::panic::panic_any`] with a typed
    /// [`crate::audit::ShardAuditViolation`] payload carrying the engine
    /// `file:line` of the failed check, the sim time, and the event key
    /// being executed.
    ///
    /// Disabled (the default), each check site costs one branch. Armed,
    /// the detector reads state only — a clean armed run is
    /// byte-identical to an unarmed one for every `--shards` count.
    pub fn enable_shard_audit(&mut self) {
        self.audit_armed = true;
        for s in self.shards.iter_mut() {
            if s.audit.is_none() {
                let mut a = Box::new(ShardAudit::new());
                a.rng_owner = s.gids.clone();
                s.audit = Some(a);
            }
        }
    }

    /// True when the shard-ownership race detector is armed.
    pub fn shard_audit_enabled(&self) -> bool {
        self.audit_armed
    }

    /// Seed an outbox-bypass bug: the next cross-shard send is pushed
    /// straight onto the producing shard's local queue, skipping the
    /// outbox barrier — the mutation seeded-violation tests use to prove
    /// the armed detector catches discipline (2). Requires
    /// [`Sim::enable_shard_audit`]. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_audit_bypass_outbox(&mut self) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        for s in self.shards.iter_mut() {
            if let Some(a) = s.audit.as_deref_mut() {
                a.fault_bypass_outbox = true;
            }
        }
    }

    /// Seed a lookahead bug: the next cross-shard send produced inside a
    /// parallel window is scheduled at the sender's current clock,
    /// ignoring the link latency that funds the lookahead — the mutation
    /// seeded-violation tests use to prove the armed detector catches
    /// discipline (3). Requires [`Sim::enable_shard_audit`]. Not part of
    /// the public API.
    #[doc(hidden)]
    pub fn debug_audit_violate_lookahead(&mut self) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        for s in self.shards.iter_mut() {
            if let Some(a) = s.audit.as_deref_mut() {
                a.fault_violate_lookahead = true;
            }
        }
    }

    /// Seed a shared-RNG-stream bug: dispatches for `victim` draw from
    /// `donor`'s per-node stream — the mutation seeded-violation tests
    /// use to prove the armed detector catches RNG stream discipline.
    /// Both nodes must live on the same shard (co-locate them with
    /// [`Sim::add_node_in_region`]). Requires
    /// [`Sim::enable_shard_audit`]. Not part of the public API.
    #[doc(hidden)]
    pub fn debug_audit_share_rng(&mut self, donor: NodeId, victim: NodeId) {
        assert!(self.audit_armed, "arm shard-audit first (enable_shard_audit)");
        let (sd, ld) = self.globals.node_loc[donor.0];
        let (sv, lv) = self.globals.node_loc[victim.0];
        assert_eq!(sd, sv, "debug_audit_share_rng: nodes must share a shard");
        if let Some(a) = self.shards[sd as usize].audit.as_deref_mut() {
            a.rng_alias = Some((lv as usize, ld as usize));
        }
    }

    /// Panic with the first recorded shard-audit violation, if any check
    /// tripped since the last coordination point. Violations are
    /// recorded (and printed) at the access site on worker threads, but
    /// raised here on the coordinator so the typed payload survives
    /// `thread::scope` and reaches `catch_unwind` intact.
    fn audit_check_barrier(&mut self) {
        if !self.audit_armed {
            return;
        }
        let mut hit: Option<(usize, ShardAuditViolation)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(v) = s.audit.as_deref_mut().and_then(|a| a.violation.take()) {
                hit = Some((i, v));
                break;
            }
        }
        if let Some((i, mut v)) = hit {
            // With the flight recorder armed, attach a postmortem anchored
            // at the offending shard's most recent recorded event.
            let anchor = self.shards[i].flight.as_ref().and_then(|f| f.latest());
            let gauges =
                if self.metrics.is_enabled() { self.metrics.last_values() } else { Vec::new() };
            v.postmortem = self.render_flight_dump(anchor, &gauges);
            std::panic::panic_any(v);
        }
    }

    /// The nodes' [`Node::name`]s in id order — the track labels trace
    /// exporters want.
    pub fn node_names(&self) -> Vec<String> {
        (0..self.node_count())
            .map(|gid| {
                let (si, li) = self.globals.node_loc[gid];
                self.shards[si as usize].nodes[li as usize].name().to_string()
            })
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Add a node; returns its ID. Default placement assigns each node its
    /// own region (round-robin across shards); use
    /// [`Sim::add_node_in_region`] to co-locate nodes that talk on
    /// low-latency links.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let region = self.globals.node_loc.len();
        self.add_node_in_region(node, region)
    }

    /// Add a node in spatial `region` (e.g. a rack or pod index). Nodes
    /// sharing a region land on the same shard (`region % shards`), so
    /// their traffic never crosses a shard boundary and the engine's
    /// lookahead is bounded only by inter-region trunk latency. Placement
    /// affects wall-clock speed, never results.
    pub fn add_node_in_region(&mut self, node: Box<dyn Node>, region: usize) -> NodeId {
        let gid = self.globals.node_loc.len();
        let si = region % self.nshards;
        let shard = &mut self.shards[si];
        let li = shard.nodes.len();
        self.globals.node_loc.push((si as u32, li as u32));
        self.globals.ports.push(Vec::new());
        self.globals.alive.push(true);
        self.globals.epochs.push(0);
        self.globals.crash_trace.push(None);
        shard.gids.push(gid as u32);
        shard.nodes.push(node);
        shard.rngs.push(StdRng::seed_from_u64(node_stream_seed(self.cfg.seed, gid as u64)));
        if let Some(a) = shard.audit.as_deref_mut() {
            a.rng_owner.push(gid as u32);
        }
        shard.node_seq.push(0);
        shard.pending_timers.push(0);
        NodeId(gid)
    }

    /// True when `node`'s network stack is up (not crashed by fault
    /// injection, or restarted since).
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.globals.alive[node.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.globals.node_loc.len()
    }

    /// Connect `a` and `b` with a link, returning the port each end got.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortId, PortId) {
        let n = self.globals.node_loc.len();
        assert!(a.0 < n && b.0 < n, "connect: unknown node");
        assert_ne!(a, b, "self-links are not supported");
        let pa = PortId(self.globals.ports[a.0].len());
        let pb = PortId(self.globals.ports[b.0].len());
        let id = LinkId(self.globals.links.len());
        self.globals.links.push(Link {
            spec,
            rate: LinkRate::from_spec(&spec),
            ends: [(a, pa), (b, pb)],
            down: false,
            loss_override: None,
        });
        self.globals.ports[a.0].push(id);
        self.globals.ports[b.0].push(id);
        self.globals.link_fault_trace.push(None);
        // Each direction's transmitter state lives with its source node's
        // shard (single writer).
        let ends = [a, b];
        let mut slots = [0u32; 2];
        for (d, end) in ends.iter().enumerate() {
            let si = self.globals.node_loc[end.0].0 as usize;
            slots[d] = self.shards[si].dirs.len() as u32;
            self.shards[si].dirs.push(Direction::default());
        }
        self.globals.dir_slot.push(slots);
        // Cross-shard links bound the conservative lookahead.
        let sa = self.globals.node_loc[a.0].0;
        let sb = self.globals.node_loc[b.0].0;
        if sa != sb {
            let lat = spec.latency.as_nanos();
            if lat == 0 {
                self.zero_lookahead = true;
            } else {
                self.lookahead_ns = self.lookahead_ns.min(lat);
            }
        }
        (pa, pb)
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.globals.ports[node.0].len()
    }

    /// Schedule a timer event for `node` at absolute time `at`.
    ///
    /// This is how workload drivers kick protocols into motion from outside.
    pub fn schedule(&mut self, at: SimTime, node: NodeId, tag: u64) {
        let epoch = self.globals.epochs[node.0];
        let seq = self.ext_seq;
        self.ext_seq += 1;
        let (si, li) = self.globals.node_loc[node.0];
        self.shards[si as usize].pending_timers[li as usize] += 1;
        let trace = if self.tracer.is_enabled() {
            if self.tracer.is_selective() {
                // An external kick roots no sampled chain by itself; it
                // becomes visible only when a protocol callback roots one
                // with a winning sample() verdict.
                None
            } else {
                self.tracer.record(
                    self.clock.as_nanos(),
                    node.0 as u32,
                    TraceKind::TimerSet { tag },
                    None,
                    None,
                )
            }
        } else {
            let now_ns = self.clock.as_nanos();
            self.flight_coord
                .as_mut()
                .map(|f| f.record(now_ns, node.0 as u32, TraceKind::TimerSet { tag }, None, None))
        };
        self.shards[si as usize].queue.push(
            EventKey { at: at.as_nanos(), src: 0, seq },
            EvData { kind: EvKind::Timer { node: node.0 as u32, tag, epoch }, trace },
        );
    }

    /// Bulk [`Sim::schedule`]: install a whole open-loop arrival schedule
    /// in one call. Arrivals are consumed in iteration order; same-time
    /// timers fire in that order, for every shard count — the workload
    /// plane (`rdv-load`) relies on this to keep offered load a pure
    /// function of the schedule, independent of completions.
    pub fn schedule_batch(&mut self, arrivals: impl IntoIterator<Item = (SimTime, NodeId, u64)>) {
        for (at, node, tag) in arrivals {
            self.schedule(at, node, tag);
        }
    }

    /// Install a [`FaultPlan`]: resolve its link references against the
    /// current topology and schedule every fault at its exact simulated
    /// time. Faults apply at window barriers, before any simulation event
    /// at an equal or later time — for every shard count.
    ///
    /// Call after all links are connected. Plans compose: installing
    /// several plans merges their schedules.
    ///
    /// # Panics
    /// Panics if a plan event names a node pair with no link between them.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            match ev {
                FaultEvent::LinkDown { at, a, b } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(*at, FaultAction::LinkState { link, down: true });
                }
                FaultEvent::LinkUp { at, a, b } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(*at, FaultAction::LinkState { link, down: false });
                }
                FaultEvent::LossBurst { at, until, a, b, loss_permille } => {
                    let link = self.resolve_link(*a, *b);
                    self.push_fault(
                        *at,
                        FaultAction::LossOverride { link, loss: Some(*loss_permille) },
                    );
                    self.push_fault(*until, FaultAction::LossOverride { link, loss: None });
                }
                FaultEvent::Partition { at, until, left, right } => {
                    let id = self.globals.partitions.len();
                    self.globals.partitions.push(Partition {
                        left: left.clone(),
                        right: right.clone(),
                        active: false,
                    });
                    self.globals.partition_fault_trace.push(None);
                    self.push_fault(*at, FaultAction::PartitionOn { id });
                    self.push_fault(*until, FaultAction::PartitionOff { id });
                }
                FaultEvent::Crash { at, node } => {
                    self.push_fault(*at, FaultAction::Crash { node: *node });
                }
                FaultEvent::Restart { at, node } => {
                    self.push_fault(*at, FaultAction::Restart { node: *node });
                }
            }
        }
    }

    /// The link directly connecting `a` and `b` (either orientation).
    fn resolve_link(&self, a: NodeId, b: NodeId) -> LinkId {
        for (i, link) in self.globals.links.iter().enumerate() {
            let ends = [link.ends[0].0, link.ends[1].0];
            if ends == [a, b] || ends == [b, a] {
                return LinkId(i);
            }
        }
        panic!("fault plan references a non-existent link between node {} and node {}", a.0, b.0);
    }

    fn push_fault(&mut self, at: SimTime, action: FaultAction) {
        let seq = self.fault_seq;
        self.fault_seq += 1;
        self.faults.push(Reverse(FaultEntry { at, seq, action }));
    }

    /// Record the trace (or flight) event for a fault action and remember
    /// its id where later drops will need it for aux edges. Faults apply
    /// only at barriers, so writing the `Globals` arrays here never races
    /// a window.
    fn trace_fault(&mut self, action: &FaultAction) -> Option<EventId> {
        if !self.tracer.is_enabled() && self.flight_coord.is_none() {
            return None;
        }
        let kind = match action {
            FaultAction::LinkState { .. } => FaultKind::LinkState,
            FaultAction::LossOverride { .. } => FaultKind::LossOverride,
            FaultAction::PartitionOn { .. } => FaultKind::PartitionOn,
            FaultAction::PartitionOff { .. } => FaultKind::PartitionOff,
            FaultAction::Crash { .. } => FaultKind::Crash,
            FaultAction::Restart { .. } => FaultKind::Restart,
        };
        let now_ns = self.clock.as_nanos();
        let id = if self.tracer.is_enabled() {
            self.tracer.record(now_ns, ENGINE_NODE, TraceKind::Fault(kind), None, None)
        } else {
            self.flight_coord
                .as_mut()
                .map(|f| f.record(now_ns, ENGINE_NODE, TraceKind::Fault(kind), None, None))
        };
        match action {
            FaultAction::LinkState { link, down: true } => {
                self.globals.link_fault_trace[link.0] = id
            }
            FaultAction::PartitionOn { id: p } => self.globals.partition_fault_trace[*p] = id,
            FaultAction::Crash { node } => self.globals.crash_trace[node.0] = id,
            _ => {}
        }
        id
    }

    /// Flip the engine state a fault action describes. Restarts re-enter
    /// the node via [`Node::on_restart`] so it can re-arm its timers;
    /// `trace` is the fault's own trace event, which becomes the causal
    /// parent of whatever the restart handler does.
    fn apply_fault(&mut self, action: FaultAction, trace: Option<EventId>) {
        match action {
            FaultAction::LinkState { link, down } => self.globals.links[link.0].down = down,
            FaultAction::LossOverride { link, loss } => {
                self.globals.links[link.0].loss_override = loss
            }
            FaultAction::PartitionOn { id } => {
                if !self.globals.partitions[id].active {
                    self.globals.partitions[id].active = true;
                    self.globals.active_partitions += 1;
                }
            }
            FaultAction::PartitionOff { id } => {
                if self.globals.partitions[id].active {
                    self.globals.partitions[id].active = false;
                    self.globals.active_partitions -= 1;
                }
            }
            FaultAction::Crash { node } => {
                if self.globals.alive[node.0] {
                    self.globals.alive[node.0] = false;
                    // Every event scheduled for the old incarnation is now
                    // stale; bumping the epoch invalidates them lazily.
                    self.globals.epochs[node.0] += 1;
                }
            }
            FaultAction::Restart { node } => {
                if !self.globals.alive[node.0] {
                    self.globals.alive[node.0] = true;
                    self.dispatch_coord(node, trace, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    /// Coordinator-side dispatch into a node's owning shard, at the
    /// engine clock (used for `on_start` and post-restart callbacks, which
    /// happen between windows).
    fn dispatch_coord(
        &mut self,
        node: NodeId,
        cause: Option<EventId>,
        f: impl FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    ) {
        let si = self.globals.node_loc[node.0].0 as usize;
        let now_ns = self.clock.as_nanos();
        let mut hooks = if self.tracer.is_enabled() { Some(&mut self.tracer) } else { None };
        let g = &self.globals;
        let shard = &mut self.shards[si];
        // All pending events are at or after the engine clock here, so
        // lifting the shard clock preserves its monotonicity.
        shard.clock_ns = shard.clock_ns.max(now_ns);
        shard.dispatch(g, node.0 as u32, cause, &mut hooks, f);
        // Sends from this dispatch may target other shards; deliver them
        // now — the next outbox drain could be windows away.
        self.drain_outboxes();
        self.audit_check_barrier();
    }

    /// Move every shard's outbox into the destination shard queues. Pop
    /// order at the destination is governed by the canonical key, so the
    /// iteration order here is immaterial.
    fn drain_outboxes(&mut self) -> u64 {
        let mut merge = std::mem::take(&mut self.merge_buf);
        for s in self.shards.iter_mut() {
            merge.append(&mut s.outbox);
        }
        let moved = merge.len() as u64;
        for (dst, key, data) in merge.drain(..) {
            self.shards[dst as usize].queue.push(key, data);
        }
        self.merge_buf = merge;
        moved
    }

    /// Borrow a node's behaviour, downcast to its concrete type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> Option<&T> {
        let (si, li) = self.globals.node_loc[id.0];
        (self.shards[si as usize].nodes[li as usize].as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutably borrow a node's behaviour, downcast to its concrete type.
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        let (si, li) = self.globals.node_loc[id.0];
        (self.shards[si as usize].nodes[li as usize].as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Derived once, from the wired fabric; refs queued by
        // `schedule` beforehand are re-filed (a no-op at the fallback).
        let min_latency = self.globals.links.iter().map(|l| l.spec.latency.as_nanos()).min();
        let (width, buckets) = queue_geometry(min_latency);
        for s in self.shards.iter_mut() {
            s.queue.set_geometry(width, buckets);
        }
        for gid in 0..self.globals.node_loc.len() {
            self.dispatch_coord(NodeId(gid), None, |n, ctx| n.on_start(ctx));
        }
    }

    /// Rebuild the public counter table from the coordinator's own
    /// contributions plus every shard's slice. Merging is an elementwise
    /// add over global counter ids, so the result is independent of shard
    /// layout.
    fn refresh_counters(&mut self) {
        let mut c = self.base_counters.clone();
        for s in &self.shards {
            c.merge(&s.counters);
        }
        // Sampling-decision tallies surface as counters only when a
        // sampler exists, so runs without sampled tracing (including every
        // committed figure) expose an unchanged counter table.
        if let Some((sampled, skipped)) = self.tracer.sample_tallies() {
            c.add("obs.spans_sampled", sampled);
            c.add("obs.spans_skipped", skipped);
        }
        self.counters = c;
    }

    /// Signed in-flight total across shards plus any test-injected leak.
    fn total_inflight(&self) -> u64 {
        let sum: i64 = self.inflight_leak + self.shards.iter().map(|s| s.inflight).sum::<i64>();
        sum.max(0) as u64
    }

    /// The most recently stamped event across every flight ring (fixed
    /// scan order, strict max on sim time — deterministic). `None` when
    /// the recorder is unarmed or nothing has been recorded.
    fn flight_latest(&self) -> Option<EventId> {
        let mut best: Option<(u64, EventId)> = None;
        let rings =
            self.shards.iter().filter_map(|s| s.flight.as_ref()).chain(self.flight_coord.as_ref());
        for r in rings {
            if let Some(id) = r.latest() {
                let at = r.get(id).map(|ev| ev.at).unwrap_or(0);
                if best.is_none_or(|(bat, _)| at > bat) {
                    best = Some((at, id));
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Render the flight-recorder postmortem: the causal ancestry of
    /// `anchor` walked across rings, per-shard window state, the merged
    /// counter table, and a gauge snapshot. Returns `None` when the
    /// recorder is unarmed. This is the only place the `flight.*`
    /// counters move, so a run that never dumps is byte-identical to one
    /// with the recorder off.
    fn render_flight_dump(
        &mut self,
        anchor: Option<EventId>,
        gauges: &[(String, u64)],
    ) -> Option<String> {
        use std::fmt::Write as _;
        self.flight_coord.as_ref()?;
        self.refresh_counters();
        let mut out = String::new();
        out.push_str("==== flight-recorder postmortem ====\n");
        let _ = writeln!(out, "sim clock: {} ns", self.clock.as_nanos());
        out.push_str("causal ancestry (most recent first):\n");
        {
            let mut rings: Vec<&FlightRing> =
                self.shards.iter().filter_map(|s| s.flight.as_ref()).collect();
            if let Some(c) = self.flight_coord.as_ref() {
                rings.push(c);
            }
            match anchor {
                Some(a) => flight::render_ancestry(&rings, a, &mut out),
                None => out.push_str("  (no events recorded)\n"),
            }
        }
        out.push_str("shard state:\n");
        let mut ring_events = 0u64;
        for s in &self.shards {
            let (recorded, retained) = s
                .flight
                .as_ref()
                .map(|f| (f.count(), f.count() - f.first_retained()))
                .unwrap_or((0, 0));
            ring_events += recorded;
            let _ = writeln!(
                out,
                "  s{}: clock={} ns queue={} outbox={} recorded={} retained={}",
                s.idx,
                s.clock_ns,
                s.queue.len(),
                s.outbox.len(),
                recorded,
                retained
            );
        }
        if let Some(c) = self.flight_coord.as_ref() {
            ring_events += c.count();
            let _ = writeln!(
                out,
                "  coord: clock={} ns recorded={} retained={}",
                self.clock.as_nanos(),
                c.count(),
                c.count() - c.first_retained()
            );
        }
        out.push_str("counters:\n");
        for (name, v) in self.counters.iter() {
            let _ = writeln!(out, "  {name} = {v}");
        }
        if !gauges.is_empty() {
            out.push_str("gauge snapshot:\n");
            for (name, v) in gauges {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        out.push_str("==== end postmortem ====");
        self.base_counters.inc("flight.dumps");
        self.base_counters.add("flight.events", ring_events);
        self.refresh_counters();
        Some(out)
    }

    /// Render the postmortem a failure at this moment would carry,
    /// anchored at `anchor` (or the most recent recorded event when
    /// `None`). `None` when the recorder is unarmed. Public so harnesses
    /// and chaos suites can capture a dump around their own typed
    /// failures, not just engine-raised ones.
    pub fn flight_postmortem(&mut self, anchor: Option<EventId>) -> Option<String> {
        let anchor = anchor.or_else(|| self.flight_latest());
        let gauges =
            if self.metrics.is_enabled() { self.metrics.last_values() } else { Vec::new() };
        self.render_flight_dump(anchor, &gauges)
    }

    /// Run until the event queues are empty (or the event budget is
    /// spent). Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run while events exist with `at <= deadline`. Returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let deadline_ns = deadline.as_nanos();
        let serial = self.tracer.is_enabled() || self.zero_lookahead;
        let mut processed = 0u64;
        loop {
            let mut next_ev = u64::MAX;
            for s in self.shards.iter_mut() {
                if let Some(k) = s.queue.peek() {
                    next_ev = next_ev.min(k.at);
                }
            }
            let next_fault = self.faults.peek().map(|r| r.0.at.as_nanos()).unwrap_or(u64::MAX);
            let next_at = next_ev.min(next_fault);
            if next_at == u64::MAX || next_at > deadline_ns {
                break;
            }
            // Take any samples due strictly before the next event, so a
            // sample at boundary `b` reflects the state after every event
            // with time ≤ `b`. Sampling reads state only: no events, no
            // RNG — disabled metrics cost exactly this one branch.
            if self.metrics.is_enabled() {
                self.pump_metrics(next_at);
            }
            if self.events >= self.cfg.max_events {
                panic!(
                    "simulation exceeded max_events={} — likely an event storm",
                    self.cfg.max_events
                );
            }
            if next_fault <= next_ev {
                // Faults mutate global state; apply at the barrier, before
                // any event at an equal or later time.
                self.apply_next_fault();
                processed += 1;
            } else if serial {
                self.process_next_serial();
                processed += 1;
            } else {
                processed += self.run_window(next_ev, next_fault, deadline_ns);
            }
        }
        self.refresh_counters();
        self.refresh_queue_stats();
        self.audit_check_barrier();
        processed
    }

    /// Fold the shard queues' push and sorted-run counts into the
    /// execution statistics: pushes summed, run high-water mark maxed.
    fn refresh_queue_stats(&mut self) {
        let mut sum = QueueStats::default();
        for s in &self.shards {
            let st = s.queue.stats();
            sum.pushes_current += st.pushes_current;
            sum.pushes_ring += st.pushes_ring;
            sum.pushes_overflow += st.pushes_overflow;
            sum.run_max = sum.run_max.max(st.run_max);
        }
        for (id, v) in [
            (SIM_SHARD_QUEUE_PUSHES_CURRENT, sum.pushes_current),
            (SIM_SHARD_QUEUE_PUSHES_RING, sum.pushes_ring),
            (SIM_SHARD_QUEUE_PUSHES_OVERFLOW, sum.pushes_overflow),
            (SIM_SHARD_QUEUE_RUN_MAX, sum.run_max),
        ] {
            // Both only grow, so the difference is what is new.
            self.exec.add_id(id, v - self.exec.get_id(id));
        }
    }

    /// Pop and apply the earliest pending fault.
    fn apply_next_fault(&mut self) {
        let Reverse(f) = self.faults.pop().expect("caller peeked a fault");
        debug_assert!(f.at >= self.clock, "time must not run backwards");
        self.clock = f.at;
        self.events += 1;
        self.base_counters.inc_id(SIM_EVENTS);
        self.base_counters.inc_id(SIM_FAULTS_APPLIED);
        let trace = self.trace_fault(&f.action);
        self.apply_fault(f.action, trace);
    }

    /// Serial mode: execute the globally smallest event key. Identical
    /// pop order to any sharded execution — keys are canonical — so this
    /// is also the reference order the trace stream exposes.
    fn process_next_serial(&mut self) {
        let mut best: Option<(EventKey, usize)> = None;
        for (i, s) in self.shards.iter_mut().enumerate() {
            if let Some(k) = s.queue.peek() {
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, i));
                }
            }
        }
        let (key, si) = best.expect("caller peeked an event");
        let mut hooks = if self.tracer.is_enabled() { Some(&mut self.tracer) } else { None };
        let g = &self.globals;
        self.shards[si].process_one(g, &mut hooks);
        self.events += 1;
        self.clock = SimTime::from_nanos(key.at);
        // With more than one shard, serial mode still routes cross-shard
        // sends through the outbox; deliver them before the next pop so
        // the global argmin sees every pending event.
        if self.nshards > 1 {
            self.drain_outboxes();
        }
        self.audit_check_barrier();
    }

    /// Windowed mode: run one conservative-lookahead window starting at
    /// `start_ns` across all shards with due events, then merge
    /// cross-shard traffic at the barrier. Returns events processed.
    fn run_window(&mut self, start_ns: u64, next_fault_ns: u64, deadline_ns: u64) -> u64 {
        // Window end: bounded by the lookahead (cross-shard sends during
        // [start, end) arrive at ≥ start + min cross-shard latency ≥ end,
        // so shards are independent inside the window), clipped so faults,
        // the deadline, and metrics ticks all land on barriers.
        let mut end = start_ns.saturating_add(self.lookahead_ns);
        end = end.min(next_fault_ns);
        end = end.min(deadline_ns.saturating_add(1));
        if let Some(tick) = self.metrics.due_before(u64::MAX) {
            end = end.min(tick.saturating_add(1));
        }
        // Budget: each worker honours the full remaining budget; overshoot
        // is bounded by one window and the panic fires at the next
        // barrier, exactly like the serial loop's check.
        let cap = self.cfg.max_events.saturating_sub(self.events).max(1);
        if self.audit_armed {
            // Tag the window every access inside it will be checked
            // against: the lookahead bound only binds in-window sends.
            for s in self.shards.iter_mut() {
                if let Some(a) = s.audit.as_deref_mut() {
                    a.window_end_ns = end;
                    a.in_window = true;
                }
            }
        }
        let mut spawned = 0u64;
        {
            let g = &self.globals;
            let mut active: Vec<&mut Shard> = self
                .shards
                .iter_mut()
                .filter_map(|s| {
                    let due = s.queue.peek().is_some_and(|k| k.at < end);
                    due.then_some(s)
                })
                .collect();
            if active.len() == 1 {
                // One busy shard: run inline, no thread overhead.
                active[0].process_window(g, end, cap);
            } else {
                spawned = active.len() as u64;
                std::thread::scope(|scope| {
                    for s in active {
                        scope.spawn(move || s.process_window(g, end, cap));
                    }
                });
            }
        }
        // Barrier: collect window results and merge outboxes. The merge
        // inserts by canonical key, so destination pop order is
        // independent of shard iteration order.
        let mut done = 0u64;
        let mut max_clock = self.clock.as_nanos();
        for s in self.shards.iter_mut() {
            done += std::mem::take(&mut s.window_done);
            max_clock = max_clock.max(s.clock_ns);
        }
        let moved = self.drain_outboxes();
        self.clock = SimTime::from_nanos(max_clock);
        self.events += done;
        self.exec.inc_id(SIM_SHARD_WINDOWS);
        self.exec.add_id(SIM_SHARD_XSHARD_PACKETS, moved);
        self.exec.add_id(SIM_SHARD_WORKER_SPAWNS, spawned);
        if self.audit_armed {
            for s in self.shards.iter_mut() {
                if let Some(a) = s.audit.as_deref_mut() {
                    a.window_end_ns = u64::MAX;
                    a.in_window = false;
                }
            }
            self.audit_check_barrier();
        }
        done
    }

    // ---- metrics plumbing (called only when metrics are enabled) ----

    /// Take every sample due strictly before `next_event_ns`, one tick per
    /// interval boundary — so a sample stamped at boundary `b` reflects
    /// the state after every event with time ≤ `b`.
    fn pump_metrics(&mut self, next_event_ns: u64) {
        while let Some(at) = self.metrics.due_before(next_event_ns) {
            self.take_sample(at);
            self.metrics.advance();
        }
    }

    /// Instance labels for per-node gauges: the node's [`Node::name`] when
    /// unique within the sim, else `n<id>` (the sampler normalizes labels
    /// to the gauge grammar).
    fn metric_instances(&self) -> Vec<String> {
        let names = self.node_names();
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                if names.iter().filter(|m| *m == name).count() == 1 {
                    name.clone()
                } else {
                    format!("n{i}")
                }
            })
            .collect()
    }

    /// The runtime state of one link direction, wherever its owner shard
    /// keeps it.
    fn link_dir(&self, link: usize, d: usize) -> &Direction {
        let owner = self.globals.links[link].ends[d].0;
        let si = self.globals.node_loc[owner.0].0 as usize;
        &self.shards[si].dirs[self.globals.dir_slot[link][d] as usize]
    }

    /// Record one metrics tick at sim time `at` (ns): link and engine
    /// gauges, every node's [`Node::sample_metrics`], derived counter
    /// rates, then (when configured) the invariant audits. The set is
    /// `mem::take`n around the walk so nodes can be borrowed while
    /// recording.
    fn take_sample(&mut self, at: u64) {
        use std::fmt::Write as _;
        self.refresh_counters();
        let mut set = std::mem::take(&mut self.metrics);
        {
            let mut m = set.sampler(at);
            let mut label = String::new();
            for i in 0..self.globals.links.len() {
                // Queue depth in bytes, both directions: the backlog is
                // kept in the time domain, so scale back by the link rate.
                let rate = self.globals.links[i].rate;
                let mut queue_bytes = 0u64;
                for d in 0..2 {
                    let backlog_ns =
                        self.link_dir(i, d).next_free.saturating_sub(self.clock).as_nanos();
                    queue_bytes +=
                        ((backlog_ns as u128 * 1000) / rate.ps_per_byte.max(1) as u128) as u64;
                }
                label.clear();
                let _ = write!(label, "l{i}");
                m.set_instance(&label);
                m.gauge("link.queue_bytes", queue_bytes);
                for d in 0..2 {
                    label.clear();
                    let _ = write!(label, "l{i}_d{d}");
                    m.set_instance(&label);
                    m.windowed_pct("link.util_pct", self.link_dir(i, d).busy_ns);
                }
            }
            let instances = self.metric_instances();
            for (gid, instance) in instances.iter().enumerate() {
                let (si, li) = self.globals.node_loc[gid];
                let shard = &self.shards[si as usize];
                m.set_instance(instance);
                m.gauge("node.pending_timers", shard.pending_timers[li as usize]);
                shard.nodes[li as usize].sample_metrics(&mut m);
            }
            m.clear_instance();
            m.gauge("engine.inflight_packets", self.total_inflight());
            // Windowed rates over the *output* engine counters:
            // `rate.<counter>`. The `sim.shard.*` execution-statistic tail
            // of ENGINE_SLOTS is excluded — those values depend on
            // --shards, and sampled output must not.
            let mut rate_name = String::new();
            for (name, id) in ENGINE_SLOTS[..ENGINE_OUTPUT_SLOTS]
                .iter()
                .zip(ENGINE_SLOT_IDS[..ENGINE_OUTPUT_SLOTS].iter())
            {
                rate_name.clear();
                rate_name.push_str("rate.");
                rate_name.push_str(name);
                m.rate_per_s(&rate_name, self.counters.get_id(*id));
            }
            if self.shard_telemetry {
                for (i, s) in self.shards.iter().enumerate() {
                    label.clear();
                    let _ = write!(label, "s{i}");
                    m.set_instance(&label);
                    m.gauge("shard.queue_events", s.queue.len() as u64);
                    m.gauge("shard.clock_ns", s.clock_ns);
                }
                m.clear_instance();
            }
        }
        if set.audit_enabled() {
            self.run_audit(&mut set, at);
        }
        self.metrics = set;
    }

    /// One invariant-monitor pass at sim time `at`. With the flight
    /// recorder armed and the monitor in panic-on-violation mode, the
    /// checks run with panics deferred so a failure can carry the rendered
    /// postmortem: the panic message is the violation's own rendering
    /// (identical prefix to the bare panic) followed by the dump.
    fn run_audit(&mut self, set: &mut MetricSet, at: u64) {
        if self.flight_coord.is_some() && set.panic_on_violation() {
            let before = set.violations().len();
            set.set_panic_on_violation(false);
            self.run_audit_checks(set, at);
            set.set_panic_on_violation(true);
            if set.violations().len() > before {
                let rendered = set.violations()[before].render();
                let anchor = self.flight_latest();
                let gauges = set.last_values();
                let dump = self.render_flight_dump(anchor, &gauges).unwrap_or_default();
                panic!("{rendered}\n{dump}");
            }
        } else {
            self.run_audit_checks(set, at);
        }
    }

    /// The invariant checks themselves: the engine-level ones (packet
    /// conservation, counter monotonicity), then every node's
    /// [`Node::audit`] claims, cross-checked at the end.
    fn run_audit_checks(&mut self, set: &mut MetricSet, at: u64) {
        // With tracing on, pin any violation to the most recent recorded
        // event — audits run between events, so the last thing that
        // happened is the right anchor.
        let ev = (self.tracer.is_enabled() && self.tracer.count() > 0)
            .then(|| EventId(self.tracer.count() - 1));
        let inflight = self.total_inflight();
        let sent = self.counters.get_id(SIM_PACKETS_SENT);
        let accounted = self.counters.get_id(SIM_PACKETS_DELIVERED)
            + self.counters.get_id(SIM_PACKETS_DROPPED)
            + self.counters.get_id(SIM_PACKETS_DROPPED_BAD_PORT)
            + self.counters.get_id(SIM_PACKETS_LOST)
            + self.counters.get_id(SIM_PACKETS_DROPPED_LINK_DOWN)
            + self.counters.get_id(SIM_PACKETS_DROPPED_PARTITION)
            + self.counters.get_id(SIM_PACKETS_DROPPED_DEAD_NODE)
            + self.counters.get_id(SIM_DELIVERIES_DROPPED_CRASH)
            + inflight;
        if sent != accounted {
            set.report_violation(
                at,
                "packet_conservation",
                format!(
                    "sent={sent} but delivered+dropped+lost+in-flight={accounted} \
                     (in-flight={inflight})"
                ),
                ev,
            );
        }
        let snapshot: Vec<(&'static str, u64)> = ENGINE_SLOTS[..ENGINE_OUTPUT_SLOTS]
            .iter()
            .zip(ENGINE_SLOT_IDS[..ENGINE_OUTPUT_SLOTS].iter())
            .map(|(name, id)| (*name, self.counters.get_id(*id)))
            .collect();
        set.check_monotonic(at, &snapshot, ev);
        set.begin_audit();
        for gid in 0..self.globals.node_loc.len() {
            let (si, li) = self.globals.node_loc[gid];
            let mut scope = set.auditor(gid as u32, self.globals.alive[gid]);
            self.shards[si as usize].nodes[li as usize].audit(&mut scope);
        }
        set.check_claims(at, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every packet back out the port it arrived on.
    struct Echo;
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            ctx.send(port, packet);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Sends one packet at start, records the echo's arrival time.
    struct Pinger {
        out: PortId,
        sent_at: Option<SimTime>,
        rtt: Option<SimTime>,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            self.sent_at = Some(ctx.now);
            ctx.send(self.out, Packet::new(vec![0u8; 100], 1));
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, _packet: Packet) {
            self.rtt = Some(ctx.now - self.sent_at.unwrap());
        }
    }

    fn spec_1b_per_ns() -> LinkSpec {
        LinkSpec {
            latency: SimTime::from_nanos(500),
            bandwidth_bps: 8_000_000_000,
            queue_bytes: 1 << 20,
            loss_permille: 0,
        }
    }

    #[test]
    fn ping_rtt_matches_link_model() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.run_until_idle();
        // Each direction: 100 ns tx + 500 ns latency = 600 ns; RTT = 1200 ns.
        let pinger = sim.node_as::<Pinger>(p).unwrap();
        assert_eq!(pinger.rtt, Some(SimTime::from_nanos(1200)));
        assert_eq!(sim.counters.get("sim.packets_delivered"), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
            let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns());
            let events = sim.run_until_idle();
            (events, sim.now().as_nanos())
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        // First delivery lands at 600 ns; stop before it.
        sim.run_until(SimTime::from_nanos(100));
        assert!(sim.node_as::<Pinger>(p).unwrap().rtt.is_none());
        sim.run_until_idle();
        assert!(sim.node_as::<Pinger>(p).unwrap().rtt.is_some());
    }

    #[test]
    fn scheduled_timers_fire_in_order() {
        struct Recorder {
            tags: Vec<u64>,
        }
        impl Node for Recorder {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, tag: u64) {
                self.tags.push(tag);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let r = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
        sim.schedule(SimTime::from_micros(30), r, 3);
        sim.schedule(SimTime::from_micros(10), r, 1);
        sim.schedule(SimTime::from_micros(20), r, 2);
        // Same-time events keep insertion order.
        sim.schedule(SimTime::from_micros(30), r, 4);
        sim.run_until_idle();
        assert_eq!(sim.node_as::<Recorder>(r).unwrap().tags, vec![1, 2, 3, 4]);
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        struct Recorder {
            fired: Vec<(u64, u64)>,
        }
        impl Node for Recorder {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
                self.fired.push((ctx.now.as_nanos(), tag));
            }
        }
        let arrivals = [(25u64, 0u64), (10, 1), (25, 2), (40, 3)];
        let run = |batch: bool| {
            let mut sim = Sim::new(SimConfig::default());
            let r = sim.add_node(Box::new(Recorder { fired: Vec::new() }));
            if batch {
                sim.schedule_batch(
                    arrivals.iter().map(|&(us, tag)| (SimTime::from_micros(us), r, tag)),
                );
            } else {
                for &(us, tag) in &arrivals {
                    sim.schedule(SimTime::from_micros(us), r, tag);
                }
            }
            sim.run_until_idle();
            sim.node_as::<Recorder>(r).unwrap().fired.clone()
        };
        let batched = run(true);
        assert_eq!(batched, run(false));
        // Same-time arrivals keep schedule order (tag 0 before tag 2).
        assert_eq!(batched, vec![(10_000, 1), (25_000, 0), (25_000, 2), (40_000, 3)]);
    }

    #[test]
    fn queue_drops_are_counted() {
        // Tiny queue, burst of packets: all but the first few drop.
        struct Burst {
            n: usize,
        }
        impl Node for Burst {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..self.n {
                    ctx.send(PortId(0), Packet::new(vec![0u8; 1000], i as u64));
                }
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        }
        struct Sink;
        impl Node for Sink {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        }
        let mut sim = Sim::new(SimConfig::default());
        let b = sim.add_node(Box::new(Burst { n: 10 }));
        let s = sim.add_node(Box::new(Sink));
        sim.connect(
            b,
            s,
            LinkSpec {
                latency: SimTime::from_micros(1),
                bandwidth_bps: 8_000_000_000,
                queue_bytes: 2_500,
                loss_permille: 0,
            },
        );
        sim.run_until_idle();
        assert_eq!(sim.counters.get("sim.packets_sent"), 10);
        let delivered = sim.counters.get("sim.packets_delivered");
        let dropped = sim.counters.get("sim.packets_dropped");
        assert_eq!(delivered + dropped, 10);
        assert!(dropped >= 7, "expected most of the burst to drop, got {dropped}");
    }

    #[test]
    fn lossy_links_drop_deterministically() {
        fn run(seed: u64) -> (u64, u64) {
            struct Burst;
            impl Node for Burst {
                fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                    for i in 0..1000u64 {
                        ctx.send(PortId(0), Packet::new(vec![0u8; 10], i));
                    }
                }
                fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            }
            struct Sink;
            impl Node for Sink {
                fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            }
            let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
            let b = sim.add_node(Box::new(Burst));
            let s = sim.add_node(Box::new(Sink));
            sim.connect(b, s, spec_1b_per_ns().with_loss(100)); // 10%
            sim.run_until_idle();
            (sim.counters.get("sim.packets_lost"), sim.counters.get("sim.packets_delivered"))
        }
        let (lost, delivered) = run(7);
        assert_eq!(lost + delivered, 1000);
        // ~10% loss within generous bounds.
        assert!((60..160).contains(&lost), "lost {lost}");
        // Determinism: identical per seed, different across seeds.
        assert_eq!(run(7), (lost, delivered));
        assert_ne!(run(8).0, 0);
    }

    /// Sends one packet every 10 µs forever (until `n` are out); counts
    /// what comes back. Re-arms its pacing timer from `on_restart`.
    struct Pacer {
        sent: usize,
        n: usize,
        received: usize,
        restarts: usize,
    }
    impl Pacer {
        fn new(n: usize) -> Pacer {
            Pacer { sent: 0, n, received: 0, restarts: 0 }
        }
        fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.sent < self.n {
                self.sent += 1;
                ctx.send(PortId(0), Packet::new(vec![0u8; 100], self.sent as u64));
                ctx.set_timer(SimTime::from_micros(10), 0);
            }
        }
    }
    impl Node for Pacer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            self.pump(ctx);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            self.pump(ctx);
        }
        fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.received += 1;
        }
        fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
            self.restarts += 1;
            self.pump(ctx);
        }
    }

    #[test]
    fn link_down_window_blocks_admissions() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(10)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        // Down for the middle of the run: sends during [25µs, 55µs) die.
        let plan = FaultPlan::new().link_down(SimTime::from_micros(25), p, e).link_up(
            SimTime::from_micros(55),
            p,
            e,
        );
        sim.install_fault_plan(&plan);
        sim.run_until_idle();
        let down_drops = sim.counters.get("sim.packets_dropped.link_down");
        assert!(down_drops > 0, "expected drops while the link was down");
        let pacer = sim.node_as::<Pacer>(p).unwrap();
        assert_eq!(pacer.sent, 10);
        // Each drop (original or echo) costs exactly one reception.
        assert_eq!(pacer.received as u64, 10 - down_drops);
        assert_eq!(sim.counters.get("sim.faults_applied"), 2);
    }

    #[test]
    fn loss_burst_overrides_and_restores_spec_rate() {
        use crate::fault::FaultPlan;
        fn run(burst: bool) -> u64 {
            let mut sim = Sim::new(SimConfig { seed: 11, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(200)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns());
            if burst {
                let plan = FaultPlan::new().loss_burst(
                    SimTime::ZERO,
                    SimTime::from_micros(1000),
                    p,
                    e,
                    500,
                );
                sim.install_fault_plan(&plan);
            }
            sim.run_until_idle();
            sim.counters.get("sim.packets_lost")
        }
        assert_eq!(run(false), 0, "spec link is lossless");
        let lost = run(true);
        // 200 paced sends, ~50% loss while the burst covers the first
        // 1000 µs (the whole send window): expect substantial loss.
        assert!(lost > 50, "burst should lose many packets, lost {lost}");
    }

    #[test]
    fn partition_blocks_cross_traffic_both_ways() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(10)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        let plan = FaultPlan::new().partition(SimTime::ZERO, SimTime::from_micros(45), &[p], &[e]);
        sim.install_fault_plan(&plan);
        sim.run_until_idle();
        let part_drops = sim.counters.get("sim.packets_dropped.partition");
        assert!(part_drops >= 4, "partition must block cross traffic, dropped {part_drops}");
        let pacer = sim.node_as::<Pacer>(p).unwrap();
        assert_eq!(pacer.received as u64, 10 - part_drops, "each drop costs one echo");
    }

    #[test]
    fn crash_drops_inflight_and_timers_restart_revives() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(10)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        // Crash the pacer at 31 µs: the echo of its 30 µs send is in
        // flight (lands at 31.2 µs) and its pacing timer is armed — both
        // must die with the crash; without a restart nothing more happens.
        let plan = FaultPlan::new()
            .crash(SimTime::from_micros(31), p)
            .restart(SimTime::from_micros(60), p);
        sim.install_fault_plan(&plan);
        sim.run_until_idle();
        let pacer = sim.node_as::<Pacer>(p).unwrap();
        assert_eq!(pacer.restarts, 1, "on_restart must run exactly once");
        assert_eq!(pacer.sent, 10, "restart re-armed the pacing timer");
        assert!(
            sim.counters.get("sim.timers_dropped.crash") >= 1,
            "the armed pacing timer must die with the crash"
        );
        assert!(
            sim.counters.get("sim.deliveries_dropped.crash") >= 1,
            "the in-flight echo must die with the crash"
        );
        assert!(pacer.received < 10, "echoes in flight at the crash are lost");
        assert!(sim.node_alive(p));
    }

    #[test]
    fn sends_to_dead_node_drop_at_admission() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(10)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        let plan = FaultPlan::new().crash(SimTime::from_micros(5), e);
        sim.install_fault_plan(&plan);
        sim.run_until_idle();
        assert!(!sim.node_alive(e));
        assert!(
            sim.counters.get("sim.packets_dropped.dead_node") >= 8,
            "sends to the dead echo must drop at the sender's link"
        );
        assert_eq!(sim.node_as::<Pacer>(p).unwrap().received, 1, "only the pre-crash echo");
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        use crate::fault::FaultPlan;
        fn run(seed: u64) -> Vec<(&'static str, u64)> {
            let mut sim = Sim::new(SimConfig { seed, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(50)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            let plan = FaultPlan::new()
                .loss_burst(SimTime::from_micros(40), SimTime::from_micros(120), p, e, 700)
                .crash(SimTime::from_micros(200), e)
                .restart(SimTime::from_micros(260), e)
                .partition(SimTime::from_micros(300), SimTime::from_micros(350), &[p], &[e]);
            sim.install_fault_plan(&plan);
            sim.run_until_idle();
            sim.counters.iter().collect()
        }
        assert_eq!(run(3), run(3), "identical seed must give identical counters");
        assert_ne!(run(3), run(4), "loss should differ across seeds");
    }

    #[test]
    #[should_panic(expected = "non-existent link")]
    fn fault_plan_with_unknown_link_panics() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        let _ = (a, b);
        let plan = FaultPlan::new().link_down(SimTime::ZERO, a, b);
        sim.install_fault_plan(&plan);
    }

    #[test]
    fn multi_hop_forwarding() {
        // pinger — echoA(forwarder) — echo: a 2-hop path via a relay that
        // forwards port 0 ↔ port 1.
        struct Relay;
        impl Node for Relay {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
                let out = if port.0 == 0 { PortId(1) } else { PortId(0) };
                ctx.send(out, packet);
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let r = sim.add_node(Box::new(Relay));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, r, spec_1b_per_ns());
        sim.connect(r, e, spec_1b_per_ns());
        sim.run_until_idle();
        // 4 one-way traversals × 600 ns.
        assert_eq!(sim.node_as::<Pinger>(p).unwrap().rtt, Some(SimTime::from_nanos(2400)));
    }

    #[test]
    fn tracing_disabled_by_default_records_nothing() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.run_until_idle();
        assert!(!sim.tracer.is_enabled());
        assert_eq!(sim.tracer.count(), 0);
    }

    #[test]
    fn trace_packet_chain_links_enqueue_transmit_deliver() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_trace(1 << 12);
        sim.run_until_idle();

        // The last deliver is the echo arriving back at the pinger; its
        // ancestry must run all the way to the original send with the
        // engine taxonomy in order.
        let (last_deliver, _) = sim
            .tracer
            .iter()
            .filter(|(_, ev)| ev.kind.name() == "packet.deliver")
            .last()
            .expect("a delivery was traced");
        assert_eq!(
            sim.tracer
                .chain_names(last_deliver)
                .into_iter()
                .map(|(_, name)| name)
                .collect::<Vec<_>>(),
            vec![
                "packet.enqueue",  // pinger sends (on_start, no cause)
                "packet.transmit", // onto the wire
                "packet.deliver",  // echo receives
                "packet.enqueue",  // echo replies — caused by the delivery
                "packet.transmit",
                "packet.deliver", // back at the pinger
            ]
        );
        // Timestamps along the chain: enqueue at 0, transmit at 100 (tx
        // time of 100 B at 1 B/ns), deliver at 600 (500 ns latency).
        let chain = sim.tracer.ancestry(last_deliver);
        let times: Vec<u64> =
            chain.iter().rev().map(|id| sim.tracer.get(*id).unwrap().at).collect();
        assert_eq!(times, vec![0, 100, 600, 600, 700, 1200]);
    }

    #[test]
    fn trace_timer_set_fire_edge() {
        struct OneShot;
        impl Node for OneShot {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimTime::from_micros(3), 42);
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
        }
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(OneShot));
        sim.enable_trace(64);
        sim.run_until_idle();
        let (fire, fire_ev) =
            sim.tracer.iter().find(|(_, ev)| ev.kind.name() == "timer.fire").expect("fire traced");
        let set_ev = sim.tracer.get(fire_ev.cause.expect("fire has a cause")).unwrap();
        assert_eq!(set_ev.kind.name(), "timer.set");
        assert_eq!(set_ev.at, 0);
        assert_eq!(fire_ev.at, 3000);
        sim.tracer.assert_chain(fire, n.0 as u32, &["timer.set", "timer.fire"]);
    }

    #[test]
    fn trace_crash_drop_carries_fault_aux_edge() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(10)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        let plan = FaultPlan::new()
            .crash(SimTime::from_micros(31), p)
            .restart(SimTime::from_micros(60), p);
        sim.install_fault_plan(&plan);
        sim.enable_trace(1 << 12);
        sim.run_until_idle();

        let crash = sim
            .tracer
            .iter()
            .find(|(_, ev)| ev.kind.name() == "fault.crash")
            .map(|(id, _)| id)
            .expect("crash fault traced");
        let (_, drop_ev) = sim
            .tracer
            .iter()
            .find(|(_, ev)| ev.kind.name() == "packet.drop.crash")
            .expect("the in-flight echo drop is traced");
        assert_eq!(drop_ev.aux, Some(crash), "drop links to the fault that caused it");
        assert_eq!(
            sim.tracer.get(drop_ev.cause.unwrap()).unwrap().kind.name(),
            "packet.transmit",
            "drop keeps its packet provenance too"
        );
        // The armed pacing timer died the same way.
        let (_, tdrop) =
            sim.tracer.iter().find(|(_, ev)| ev.kind.name() == "timer.drop").expect("timer drop");
        assert_eq!(tdrop.aux, Some(crash));
        // And the restart dispatch is caused by the restart fault.
        let restart = sim
            .tracer
            .iter()
            .find(|(_, ev)| ev.kind.name() == "fault.restart")
            .map(|(id, _)| id)
            .unwrap();
        let resumed = sim
            .tracer
            .iter()
            .any(|(_, ev)| ev.cause == Some(restart) && ev.kind.name() == "packet.enqueue");
        assert!(resumed, "the pacer's post-restart send is rooted at the restart fault");
    }

    fn metrics_cfg(interval_ns: u64) -> MetricsConfig {
        MetricsConfig { sample_interval_ns: interval_ns, ..Default::default() }
    }

    #[test]
    fn metrics_disabled_by_default_record_nothing() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.run_until_idle();
        assert!(!sim.metrics.is_enabled());
        assert!(sim.metrics.names().is_empty());
        assert_eq!(sim.metrics.ticks(), 0);
    }

    #[test]
    fn metrics_sample_gauges_and_rates_on_cadence() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(20)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_metrics(metrics_cfg(10_000)); // one tick per pacing period
        sim.run_until_idle();
        sim.flush_metrics(sim.now());
        let set = sim.take_metrics();
        assert!(set.ticks() > 0, "samples were taken");
        let names = set.names();
        for expected in [
            "link.queue_bytes.l0",
            "link.util_pct.l0_d0",
            "link.util_pct.l0_d1",
            "node.pending_timers.node",
            "node.pending_timers.echo",
            "engine.inflight_packets",
            "rate.sim.events",
            "rate.sim.packets_delivered",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing gauge {expected}: {names:?}");
        }
        // Every tick delivered a pacer send and its echo: the delivery
        // rate series must be nonzero somewhere.
        let rate = set.series_by_name("rate.sim.packets_delivered").unwrap();
        assert!(rate.points().any(|(_, v)| v > 0));
        // The invariant monitor ran green the whole way.
        assert!(set.violations().is_empty());
    }

    #[test]
    fn metrics_observation_never_perturbs_the_run() {
        fn run(metrics: bool) -> (u64, u64, Vec<(&'static str, u64)>) {
            use crate::fault::FaultPlan;
            let mut sim = Sim::new(SimConfig { seed: 5, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(50)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            let plan = FaultPlan::new()
                .crash(SimTime::from_micros(120), e)
                .restart(SimTime::from_micros(180), e);
            sim.install_fault_plan(&plan);
            if metrics {
                sim.enable_metrics(metrics_cfg(7_000));
            }
            let events = sim.run_until_idle();
            (events, sim.now().as_nanos(), sim.counters.iter().collect())
        }
        assert_eq!(run(false), run(true), "sampling must not change the simulation");
    }

    #[test]
    fn metrics_are_deterministic_per_seed() {
        fn run() -> String {
            let mut sim = Sim::new(SimConfig { seed: 9, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(25)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            sim.enable_metrics(metrics_cfg(5_000));
            sim.run_until_idle();
            sim.flush_metrics(sim.now());
            rdv_metrics::export::json(&sim.take_metrics(), "T", 9)
        }
        assert_eq!(run(), run(), "metrics JSON must be byte-identical per seed");
    }

    #[test]
    fn seeded_inflight_leak_trips_packet_conservation_at_first_audit() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(5)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_metrics(MetricsConfig {
            sample_interval_ns: 10_000,
            panic_on_violation: false,
            ..Default::default()
        });
        sim.debug_leak_inflight();
        sim.run_until_idle();
        let set = sim.take_metrics();
        let v = set.violations().first().expect("the leak must be caught");
        assert_eq!(v.invariant, "packet_conservation");
        assert_eq!(v.at_ns, 10_000, "caught at the first audit tick after the leak");
        assert!(v.detail.contains("sent="), "detail names the failing account: {}", v.detail);
        assert!(!v.gauges.is_empty(), "violation carries the gauge snapshot");
    }

    #[test]
    fn seeded_stale_holder_trips_directory_holders_with_event_id() {
        use rdv_metrics::AuditScope;
        /// A directory owner whose table lists an inbox nobody declares.
        struct StaleDir;
        impl Node for StaleDir {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn audit(&self, a: &mut AuditScope<'_>) {
                a.declare_inbox(0xA0);
                a.claim_holder(0x7, 0xDEAD);
            }
            fn name(&self) -> &str {
                "staledir"
            }
        }
        let mut sim = Sim::new(SimConfig::default());
        let d = sim.add_node(Box::new(StaleDir));
        let p = sim.add_node(Box::new(Pacer::new(3)));
        sim.connect(p, d, spec_1b_per_ns());
        sim.enable_trace(1 << 10);
        sim.enable_metrics(MetricsConfig {
            sample_interval_ns: 10_000,
            panic_on_violation: false,
            ..Default::default()
        });
        sim.run_until_idle();
        let set = sim.take_metrics();
        let v = set.violations().first().expect("the stale holder must be caught");
        assert_eq!(v.invariant, "directory_holders");
        assert_eq!(v.at_ns, 10_000);
        assert!(v.detail.contains("0xdead"));
        assert!(v.event_id.is_some(), "tracing was on, so the violation pins an EventId");
    }

    #[test]
    #[should_panic(expected = "invariant `packet_conservation` violated")]
    fn violations_panic_by_default() {
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pacer::new(5)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_metrics(metrics_cfg(10_000));
        sim.debug_leak_inflight();
        sim.run_until_idle();
    }

    #[test]
    fn trace_stream_is_deterministic_and_exports_identically() {
        fn run() -> (rdv_trace::Tracer, Vec<String>) {
            let mut sim = Sim::new(SimConfig { seed: 9, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(25)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            sim.enable_trace(1 << 12);
            sim.run_until_idle();
            let names = sim.node_names();
            (sim.take_tracer(), names)
        }
        let (t1, n1) = run();
        let (t2, n2) = run();
        assert_eq!(t1.count(), t2.count());
        assert_eq!(
            rdv_trace::export::chrome_json(&t1, &n1),
            rdv_trace::export::chrome_json(&t2, &n2),
            "trace JSON must be byte-identical per seed"
        );
        assert_eq!(
            rdv_trace::export::text_timeline(&t1, &n1),
            rdv_trace::export::text_timeline(&t2, &n2)
        );
    }

    // ---- sharded execution ----

    /// One full faulted/lossy scenario at a given shard count, returning
    /// everything a run exposes: counters, event count, final clock, and
    /// the metrics JSON export.
    fn sharded_fixture(seed: u64, shards: usize) -> (Vec<(&'static str, u64)>, u64, u64, String) {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(50)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns().with_loss(100));
        let plan = FaultPlan::new()
            .loss_burst(SimTime::from_micros(40), SimTime::from_micros(120), p, e, 700)
            .crash(SimTime::from_micros(200), e)
            .restart(SimTime::from_micros(260), e)
            .partition(SimTime::from_micros(300), SimTime::from_micros(350), &[p], &[e]);
        sim.install_fault_plan(&plan);
        sim.enable_metrics(metrics_cfg(7_000));
        let events = sim.run_until_idle();
        sim.flush_metrics(sim.now());
        let clock = sim.now().as_nanos();
        let counters = sim.counters.iter().collect();
        let json = rdv_metrics::export::json(&sim.take_metrics(), "T", seed);
        (counters, events, clock, json)
    }

    #[test]
    fn sharded_execution_is_byte_identical_to_single_shard() {
        let flat = sharded_fixture(3, 1);
        for shards in [2, 4, 8] {
            assert_eq!(
                sharded_fixture(3, shards),
                flat,
                "--shards {shards} must reproduce --shards 1 exactly"
            );
        }
    }

    #[test]
    fn sharded_parallel_path_actually_runs_windows() {
        use crate::fault::FaultPlan;
        fn run(shards: usize) -> (Vec<(&'static str, u64)>, u64, u64) {
            let mut sim = Sim::new(SimConfig { seed: 3, shards, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(50)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            let plan = FaultPlan::new()
                .crash(SimTime::from_micros(200), e)
                .restart(SimTime::from_micros(260), e);
            sim.install_fault_plan(&plan);
            let events = sim.run_until_idle();
            if shards > 1 {
                // Two nodes, two shards, a 500 ns cross-shard link: the
                // parallel windowed loop must have engaged.
                assert!(
                    sim.exec_stats().get("sim.shard.windows") > 0,
                    "expected windowed execution"
                );
                assert!(
                    sim.exec_stats().get("sim.shard.xshard_packets") > 0,
                    "expected cross-shard traffic"
                );
            }
            (sim.counters.iter().collect(), events, sim.now().as_nanos())
        }
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn regions_group_nodes_onto_shards() {
        let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
        let a = sim.add_node_in_region(Box::new(Echo), 0);
        let b = sim.add_node_in_region(Box::new(Echo), 0);
        let c = sim.add_node_in_region(Box::new(Echo), 1);
        assert_eq!(sim.shard_count(), 2);
        // Same region ⇒ same shard; links inside it never bound lookahead.
        sim.connect(a, b, spec_1b_per_ns());
        assert_eq!(sim.lookahead_ns, u64::MAX, "intra-region link must not bound lookahead");
        sim.connect(b, c, spec_1b_per_ns());
        assert_eq!(sim.lookahead_ns, 500, "cross-region link sets the lookahead");
    }

    #[test]
    fn exec_stats_stay_out_of_run_counters() {
        let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(20)));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.run_until_idle();
        assert!(sim.exec_stats().get("sim.shard.windows") > 0);
        // The public counter table must not mention shard execution:
        // its values would differ across --shards.
        assert!(sim.counters.iter().all(|(name, _)| !name.starts_with("sim.shard.")));
    }

    /// `rack_storm`'s shape scaled down to 16 racks × 64 hosts on 500 ns
    /// host links and 2 µs trunks: every host bursts two packets at t = 0
    /// and bounces its echoes a few times; every switch echoes host
    /// traffic and relays four packets once round the trunk ring.
    fn small_rack_storm(shards: usize) -> Sim {
        struct Host {
            left: u64,
        }
        impl Node for Host {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for i in 0..2 {
                    ctx.send(PortId(0), Packet::new(vec![0u8; 64], i));
                }
            }
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
                if self.left > 0 {
                    self.left -= 1;
                    ctx.send(port, packet);
                }
            }
        }
        struct Switch {
            hosts: usize,
            hops: u64,
        }
        impl Node for Switch {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for _ in 0..4 {
                    ctx.send(PortId(self.hosts), Packet::new(vec![0u8; 128], self.hops));
                }
            }
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
                if port.0 < self.hosts {
                    ctx.send(port, packet);
                } else if packet.trace > 0 {
                    ctx.send(PortId(self.hosts), Packet::new(packet.payload, packet.trace - 1));
                }
            }
        }
        let (racks, hosts) = (16, 64);
        let trunk = LinkSpec { latency: SimTime::from_micros(2), ..spec_1b_per_ns() };
        let mut sim = Sim::new(SimConfig { seed: 5, shards, ..Default::default() });
        crate::topo::build_rack_ring(
            &mut sim,
            racks,
            hosts,
            |_| Box::new(Switch { hosts, hops: racks as u64 }),
            |i| Box::new(Host { left: 4 + (i % 13) as u64 }),
            spec_1b_per_ns(),
            trunk,
        );
        sim.run_until_idle();
        sim
    }

    #[test]
    fn derived_bucket_width_keeps_a_rack_storm_out_of_the_current_bucket() {
        let flat = small_rack_storm(1);
        // 500 ns links: 256 ns buckets, the ring keeping the 2 ms horizon.
        assert_eq!(flat.shards[0].queue.geometry(), (256, 8192));
        let exec = flat.exec_stats();
        let current = exec.get("sim.shard.queue_pushes_current");
        let pushes = current
            + exec.get("sim.shard.queue_pushes_ring")
            + exec.get("sim.shard.queue_pushes_overflow");
        assert!(pushes > 10_000, "{pushes} pushes");
        assert!(current * 100 < pushes, "{current} of {pushes} pushes hit the current bucket");
        // The 1,024 hosts' first packets reach their switches at one
        // instant and drain as one sorted run.
        assert!(exec.get("sim.shard.queue_run_max") >= 1024);
        let output = |sim: &Sim| (sim.counters.iter().collect::<Vec<_>>(), sim.now());
        for shards in [2, 8] {
            let sharded = small_rack_storm(shards);
            assert_eq!(output(&sharded), output(&flat), "--shards {shards}");
            assert!(sharded.exec_stats().get("sim.shard.windows") > 0);
        }
    }

    #[test]
    fn bucket_geometry_follows_the_fastest_link() {
        assert_eq!(queue_geometry(None), (QUEUE_BUCKET_WIDTH_NS, QUEUE_BUCKETS));
        assert_eq!(queue_geometry(Some(0)), (QUEUE_BUCKET_WIDTH_NS, QUEUE_BUCKETS));
        assert_eq!(queue_geometry(Some(500)), (256, 8192));
        assert_eq!(queue_geometry(Some(1)), (1, 8192), "ns links cannot blow the ring up");
        assert_eq!(queue_geometry(Some(4096)), (4096, 512));
        assert_eq!(queue_geometry(Some(2_000)), (1024, 2048));
        assert_eq!(queue_geometry(Some(10_000_000)), (1 << 23, 1));
    }

    #[test]
    fn shard_telemetry_gauges_are_opt_in() {
        fn run(telemetry: bool) -> Vec<String> {
            let mut sim = Sim::new(SimConfig { shards: 2, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(20)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns());
            sim.enable_metrics(metrics_cfg(10_000));
            if telemetry {
                sim.enable_shard_telemetry();
            }
            sim.run_until_idle();
            sim.flush_metrics(sim.now());
            sim.take_metrics().names().to_vec()
        }
        let without = run(false);
        assert!(without.iter().all(|n| !n.starts_with("shard.")), "telemetry must be opt-in");
        let with = run(true);
        for expected in ["shard.queue_events.s0", "shard.queue_events.s1", "shard.clock_ns.s0"] {
            assert!(with.iter().any(|n| n == expected), "missing {expected}: {with:?}");
        }
    }

    #[test]
    fn external_schedule_is_shard_count_independent() {
        struct Recorder {
            tags: Vec<u64>,
        }
        impl Node for Recorder {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn on_timer(&mut self, _: &mut NodeCtx<'_>, tag: u64) {
                self.tags.push(tag);
            }
        }
        fn run(shards: usize) -> Vec<(u64, u64)> {
            let mut sim = Sim::new(SimConfig { shards, ..Default::default() });
            let a = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
            let b = sim.add_node(Box::new(Recorder { tags: Vec::new() }));
            sim.connect(a, b, spec_1b_per_ns());
            for i in 0..10u64 {
                sim.schedule(
                    SimTime::from_micros(10 * (i % 3) + 5),
                    if i % 2 == 0 { a } else { b },
                    i,
                );
            }
            sim.run_until_idle();
            let mut out = Vec::new();
            for (gid, node) in [a, b].into_iter().enumerate() {
                for &t in &sim.node_as::<Recorder>(node).unwrap().tags {
                    out.push((gid as u64, t));
                }
            }
            out
        }
        assert_eq!(run(1), run(2));
        assert_eq!(run(1), run(8));
    }

    // ---- delayed sends ----

    /// How [`Holder`] models its hold time.
    #[derive(Clone, Copy, PartialEq)]
    enum Hold {
        /// Park the packet, arm a timer, send it from `on_timer`.
        HandRolled,
        /// [`NodeCtx::send_after`] / [`NodeCtx::flood_after`].
        Engine,
        /// No hold at all: plain [`NodeCtx::send`] / [`NodeCtx::flood`].
        Direct,
    }

    /// A relay on port 0 that holds each packet for `hold` before passing
    /// it on: out of port 1, or (with `flood`) out of every other port.
    /// Packets from the far side go straight back out of port 0 after
    /// the same hold.
    struct Holder {
        mode: Hold,
        hold: SimTime,
        flood: bool,
        parked: Vec<Option<(PortId, Packet, bool)>>,
    }
    impl Holder {
        fn new(mode: Hold, hold: SimTime, flood: bool) -> Holder {
            Holder { mode, hold, flood, parked: Vec::new() }
        }
    }
    impl Node for Holder {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
            let (out, flood) =
                if port.0 == 0 { (PortId(1), self.flood) } else { (PortId(0), false) };
            match (self.mode, flood) {
                (Hold::HandRolled, _) => {
                    let out = if flood { port } else { out };
                    ctx.set_timer(self.hold, self.parked.len() as u64);
                    self.parked.push(Some((out, packet, flood)));
                }
                (Hold::Engine, false) => ctx.send_after(self.hold, out, packet),
                (Hold::Engine, true) => ctx.flood_after(self.hold, packet, Some(port)),
                (Hold::Direct, false) => ctx.send(out, packet),
                (Hold::Direct, true) => ctx.flood(&packet, Some(port)),
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            if let Some((port, packet, flood)) = self.parked[tag as usize].take() {
                if flood {
                    ctx.flood(&packet, Some(port));
                } else {
                    ctx.send(port, packet);
                }
            }
        }
    }

    /// Records the arrival time of every packet it receives.
    struct Arrivals(Vec<u64>);
    impl Node for Arrivals {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _: PortId, _: Packet) {
            self.0.push(ctx.now.as_nanos());
        }
    }

    /// Everything a delayed-send run exposes: arrival times at the pacer
    /// side and both echoes, the counter table, and the traced event
    /// stream as `(at, node, kind, cause, aux)` — timer tags left out,
    /// since a delayed send is traced under [`SEND_AFTER_TAG`].
    type HoldRun = (Vec<u64>, Vec<(&'static str, u64)>, Vec<(u64, u32, &'static str, u64, u64)>);

    /// Pacer → holder → two echoes on lossy links, traced.
    fn hold_fixture(mode: Hold, hold: SimTime, flood: bool) -> HoldRun {
        let mut sim = Sim::new(SimConfig { seed: 5, ..Default::default() });
        let p = sim.add_node(Box::new(Pacer::new(30)));
        let h = sim.add_node(Box::new(Holder::new(mode, hold, flood)));
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        let tap = sim.add_node(Box::new(Arrivals(Vec::new())));
        sim.connect(p, h, spec_1b_per_ns().with_loss(100));
        sim.connect(h, a, spec_1b_per_ns().with_loss(100));
        sim.connect(h, b, spec_1b_per_ns());
        sim.connect(h, tap, spec_1b_per_ns());
        sim.enable_trace(1 << 14);
        sim.run_until_idle();
        let mut arrivals = sim.node_as::<Arrivals>(tap).unwrap().0.clone();
        arrivals.push(sim.node_as::<Pacer>(p).unwrap().received as u64);
        let trace = sim
            .tracer
            .iter()
            .map(|(_, ev)| {
                let id = |e: Option<EventId>| e.map_or(0, |e| e.0 + 1);
                (ev.at, ev.node, ev.kind.name(), id(ev.cause), id(ev.aux))
            })
            .collect();
        (arrivals, sim.counters.iter().collect(), trace)
    }

    #[test]
    fn send_after_matches_a_hand_rolled_timer_and_send() {
        let hold = SimTime::from_micros(3);
        let engine = hold_fixture(Hold::Engine, hold, false);
        assert_eq!(engine, hold_fixture(Hold::HandRolled, hold, false));
        // The run exercised the loss roll and the held return path.
        assert!(engine.1.iter().any(|&(n, v)| n == "sim.packets_lost" && v > 0));
        assert!(*engine.0.last().unwrap() > 0, "echoes made it back through the hold");
    }

    #[test]
    fn flood_after_matches_a_hand_rolled_timer_and_flood() {
        let hold = SimTime::from_micros(3);
        let engine = hold_fixture(Hold::Engine, hold, true);
        assert_eq!(engine, hold_fixture(Hold::HandRolled, hold, true));
        assert!(engine.0.len() > 1, "the flood reached the tap");
    }

    #[test]
    fn zero_delay_send_after_is_exactly_send() {
        for flood in [false, true] {
            assert_eq!(
                hold_fixture(Hold::Engine, SimTime::ZERO, flood),
                hold_fixture(Hold::Direct, SimTime::ZERO, flood),
                "flood={flood}"
            );
        }
    }

    #[test]
    fn crash_between_defer_and_fire_drops_the_packet() {
        use crate::fault::FaultPlan;
        let mut sim = Sim::new(SimConfig::default());
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let h = sim.add_node(Box::new(Holder::new(Hold::Engine, SimTime::from_micros(10), false)));
        let tap = sim.add_node(Box::new(Arrivals(Vec::new())));
        sim.connect(p, h, spec_1b_per_ns());
        sim.connect(h, tap, spec_1b_per_ns());
        // The ping reaches the holder at 600 ns; the holder dies holding
        // it and comes back before the hold would have expired.
        let plan =
            FaultPlan::new().crash(SimTime::from_micros(5), h).restart(SimTime::from_micros(8), h);
        sim.install_fault_plan(&plan);
        sim.enable_metrics(metrics_cfg(1_000));
        sim.run_until_idle();
        sim.flush_metrics(SimTime::from_micros(20));
        assert_eq!(sim.counters.get("sim.timers_dropped.crash"), 1);
        assert_eq!(sim.counters.get("sim.timers"), 0);
        assert_eq!(sim.counters.get("sim.packets_sent"), 1, "the held packet was never admitted");
        assert!(sim.node_as::<Arrivals>(tap).unwrap().0.is_empty());
        assert_eq!(sim.shards[0].pending_timers, vec![0, 0, 0]);
        // Packet conservation held at every audit tick (a violation
        // would have panicked).
        assert!(sim.take_metrics().violations().is_empty());
    }

    #[test]
    fn event_payload_is_no_larger_than_a_delivery() {
        // Delayed sends ride the same queue as deliveries and timers; the
        // queue entry must not grow for them (56 B before they existed).
        assert!(std::mem::size_of::<EvData>() <= 56, "{}", std::mem::size_of::<EvData>());
        // Nor may the queue's slab slot, which threads its free list
        // through vacant payloads.
        let slot = std::mem::size_of::<crate::queue::Slot<EvData>>();
        assert!(slot <= 56, "{slot}");
    }

    // ---- flight recorder & sampled tracing ----

    #[test]
    fn flight_recorder_on_a_clean_run_changes_no_output() {
        use crate::fault::FaultPlan;
        fn run(flight: bool) -> (Vec<(&'static str, u64)>, u64, u64, String) {
            let mut sim = Sim::new(SimConfig { seed: 3, shards: 2, ..Default::default() });
            let p = sim.add_node(Box::new(Pacer::new(50)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns().with_loss(100));
            let plan = FaultPlan::new()
                .crash(SimTime::from_micros(200), e)
                .restart(SimTime::from_micros(260), e);
            sim.install_fault_plan(&plan);
            sim.enable_metrics(metrics_cfg(7_000));
            if flight {
                sim.enable_flight_recorder(256);
            }
            let events = sim.run_until_idle();
            sim.flush_metrics(sim.now());
            let clock = sim.now().as_nanos();
            let counters = sim.counters.iter().collect();
            let json = rdv_metrics::export::json(&sim.take_metrics(), "T", 3);
            (counters, events, clock, json)
        }
        assert_eq!(run(false), run(true), "an armed recorder must not change a clean run");
    }

    #[test]
    fn flight_postmortem_walks_causal_ancestry_across_rings() {
        let mut sim = Sim::new(SimConfig { seed: 1, shards: 2, ..Default::default() });
        let p = sim.add_node(Box::new(Pinger { out: PortId(0), sent_at: None, rtt: None }));
        let e = sim.add_node(Box::new(Echo));
        sim.connect(p, e, spec_1b_per_ns());
        sim.enable_flight_recorder(64);
        sim.run_until_idle();
        let dump = sim.flight_postmortem(None).expect("recorder is armed");
        assert!(dump.starts_with("==== flight-recorder postmortem ===="), "{dump}");
        assert!(dump.contains("causal ancestry (most recent first):"), "{dump}");
        // The pinger's echo round-trip crossed both shard rings: the
        // ancestry of the final delivery names a cross-ring cause.
        assert!(dump.contains("packet.deliver"), "{dump}");
        assert!(dump.contains("cause=s"), "ancestry must carry ring-qualified edges: {dump}");
        assert!(dump.contains("shard state:") && dump.contains("counters:"), "{dump}");
        assert_eq!(sim.counters.get("flight.dumps"), 1);
        assert!(sim.counters.get("flight.events") > 0);
    }

    #[test]
    fn seeded_leak_with_flight_recorder_panics_with_postmortem() {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Sim::new(SimConfig::default());
            let p = sim.add_node(Box::new(Pacer::new(5)));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns());
            sim.enable_metrics(metrics_cfg(10_000));
            sim.enable_flight_recorder(128);
            sim.debug_leak_inflight();
            sim.run_until_idle();
        }))
        .expect_err("the leak must still panic with the recorder armed");
        let msg = payload.downcast_ref::<String>().expect("panic message is a String");
        assert!(
            msg.starts_with("invariant `packet_conservation` violated"),
            "the bare-panic prefix must survive: {msg}"
        );
        assert!(msg.contains("==== flight-recorder postmortem ===="), "{msg}");
        assert!(msg.contains("causal ancestry (most recent first):"), "{msg}");
        assert!(msg.contains("gauge snapshot:"), "{msg}");
    }

    #[test]
    fn sampled_tracing_keeps_only_rooted_chains_and_is_deterministic() {
        /// A pacer whose every batch asks the sampler for a verdict,
        /// wraps the send in a span, and detaches before re-arming — the
        /// pattern protocol instrumentation uses.
        struct SamplingPacer {
            seq: u64,
            n: u64,
        }
        impl Node for SamplingPacer {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                self.pump(ctx);
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
                self.pump(ctx);
            }
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: Packet) {}
            fn name(&self) -> &str {
                "sampler"
            }
        }
        impl SamplingPacer {
            fn pump(&mut self, ctx: &mut NodeCtx<'_>) {
                if self.seq < self.n {
                    self.seq += 1;
                    ctx.trace.sample("load.batch", self.seq);
                    let begin = ctx.trace.span_begin("load.batch", self.seq);
                    ctx.send(PortId(0), Packet::new(vec![0u8; 64], self.seq));
                    ctx.trace.span_end("load.batch", begin);
                    ctx.trace.detach();
                    ctx.set_timer(SimTime::from_micros(10), 0);
                }
            }
        }
        fn run(shards: usize) -> (String, (u64, u64)) {
            let mut sim = Sim::new(SimConfig { seed: 7, shards, ..Default::default() });
            let p = sim.add_node(Box::new(SamplingPacer { seq: 0, n: 40 }));
            let e = sim.add_node(Box::new(Echo));
            sim.connect(p, e, spec_1b_per_ns());
            sim.enable_trace_sampled(
                1 << 12,
                SampleSpec { seed: 7, default_permille: 500, classes: vec![] },
            );
            sim.run_until_idle();
            let names = sim.node_names();
            let tallies = sim.tracer.sample_tallies().unwrap();
            (rdv_trace::export::chrome_json(&sim.take_tracer(), &names), tallies)
        }
        let (json1, (sampled, skipped)) = run(1);
        assert_eq!(sampled + skipped, 40, "every batch got a verdict");
        assert!(sampled > 0 && skipped > 0, "500‰ must split 40 batches ({sampled}/{skipped})");
        // Detached re-arm timers belong to no sampled chain: the pacing
        // clockwork is invisible in the selective trace.
        assert!(!json1.contains("timer.set"), "unrooted timers must be dropped");
        assert!(json1.contains("load.batch"), "sampled spans are recorded");
        assert!(json1.contains("packet.deliver"), "sampled sends chain through delivery");
        let (json2, tallies2) = run(2);
        assert_eq!(json1, json2, "sampled trace must be byte-identical across --shards");
        assert_eq!((sampled, skipped), tallies2);
    }
}
