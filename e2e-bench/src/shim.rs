//! The traced run's timing shim and the star fabric it needs.
//!
//! [`Timed`] wraps a node handed to the engine and times every callback
//! the engine makes into it (`on_start`/`on_packet`/`on_timer`/
//! `on_restart`), split into at most two classes so one node type can be
//! charged to two layers (a `HostNode`'s gossip traffic vs. its discovery
//! access path). It reads the wall clock only around the delegated call
//! and never touches the context, so the simulation it wraps runs exactly
//! as it would unwrapped — the harnesses check that by comparing outcomes.

use std::time::Instant;

use rdv_discovery::host::tags as host_tags;
use rdv_discovery::HostNode;
use rdv_netsim::metrics::{AuditScope, MetricSample};
use rdv_netsim::{LinkSpec, Node, NodeCtx, NodeId, Packet, PortId, Sim, SimConfig};
use rdv_objspace::ObjId;
use rdv_p4rt::capacity::SramBudget;
use rdv_p4rt::header::{objnet_format, OBJNET_DST_OBJ};
use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
use rdv_p4rt::table::{Action, MatchKind, Table, TableEntry};

/// Callback tallies for one class of a node's work.
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    /// Wall-clock nanoseconds spent inside the wrapped callbacks.
    pub ns: u64,
    /// `on_packet` calls.
    pub packet_calls: u64,
    /// `on_timer` calls.
    pub timer_calls: u64,
    /// `on_start` + `on_restart` calls.
    pub other_calls: u64,
}

impl Busy {
    /// Every callback of this class.
    pub fn calls(&self) -> u64 {
        self.packet_calls + self.timer_calls + self.other_calls
    }

    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &Busy) {
        self.ns += other.ns;
        self.packet_calls += other.packet_calls;
        self.timer_calls += other.timer_calls;
        self.other_calls += other.other_calls;
    }
}

/// How a node type's callbacks split into classes (0 or 1). The default
/// charges everything to class 0.
pub trait Classify {
    /// Class of an arriving packet.
    fn packet_class(_packet: &Packet) -> usize {
        0
    }
    /// Class of a firing timer.
    fn timer_class(_tag: u64) -> usize {
        0
    }
}

/// First payload byte of a memproto `GossipDigest` / `GossipDelta`
/// message (`MsgBody::msg_type`).
const GOSSIP_MSG_TYPES: [u8; 2] = [0x13, 0x14];

/// `HostNode`: class 1 is the anti-entropy plane (gossip round timers and
/// digest/delta packets), class 0 everything else — the discovery access
/// path and the memproto serve path it drives.
impl Classify for HostNode {
    fn packet_class(packet: &Packet) -> usize {
        usize::from(packet.payload.first().is_some_and(|t| GOSSIP_MSG_TYPES.contains(t)))
    }
    fn timer_class(tag: u64) -> usize {
        usize::from(tag & host_tags::GOSSIP != 0)
    }
}

impl Classify for SwitchNode {}
impl Classify for rdv_core::GasHostNode {}

/// A delegating node that times every engine callback into `inner`.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    /// Tallies per class (see [`Classify`]).
    pub busy: [Busy; 2],
}

impl<N> Timed<N> {
    /// Wrap `inner` with zeroed tallies.
    pub fn new(inner: N) -> Timed<N> {
        Timed { inner, busy: [Busy::default(); 2] }
    }
}

impl<N: Node + Classify> Node for Timed<N> {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let class = N::packet_class(&packet);
        let t = Instant::now();
        self.inner.on_packet(ctx, port, packet);
        let b = &mut self.busy[class];
        b.ns += t.elapsed().as_nanos() as u64;
        b.packet_calls += 1;
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        let class = N::timer_class(tag);
        let t = Instant::now();
        self.inner.on_timer(ctx, tag);
        let b = &mut self.busy[class];
        b.ns += t.elapsed().as_nanos() as u64;
        b.timer_calls += 1;
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.busy[0].ns += t.elapsed().as_nanos() as u64;
        self.busy[0].other_calls += 1;
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        let t = Instant::now();
        self.inner.on_restart(ctx);
        self.busy[0].ns += t.elapsed().as_nanos() as u64;
        self.busy[0].other_calls += 1;
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample_metrics(&self, m: &mut MetricSample<'_>) {
        self.inner.sample_metrics(m);
    }

    fn audit(&self, a: &mut AuditScope<'_>) {
        self.inner.audit(a);
    }
}

/// `rdv_core::scenarios::build_star_fabric_sharded`, step for step, except
/// that the switch it creates is wrapped in [`Timed`] too — the library
/// builder constructs the switch internally, out of the shim's reach. The
/// harnesses prove the copy faithful by comparing outcomes with runs built
/// by the library.
pub fn build_star_timed(
    seed: u64,
    shards: usize,
    nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)>,
    obj_routes: &[(ObjId, usize)],
) -> (Sim, Vec<NodeId>) {
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    let mut pl = Pipeline::new(objnet_format(), Action::Drop);
    pl.add_table(Table::new(
        "objroute",
        vec![OBJNET_DST_OBJ],
        MatchKind::Exact,
        128,
        SramBudget::tofino(),
    ));
    for (i, (_, inbox, _)) in nodes.iter().enumerate() {
        pl.table_mut(0)
            .expect("table 0")
            .insert(TableEntry::Exact { key: vec![inbox.as_u128()] }, Action::Forward(i))
            .expect("capacity");
    }
    for &(obj, host) in obj_routes {
        pl.table_mut(0)
            .expect("table 0")
            .insert(TableEntry::Exact { key: vec![obj.as_u128()] }, Action::Forward(host))
            .expect("capacity");
    }
    let mut ids = Vec::with_capacity(nodes.len());
    let mut links = Vec::with_capacity(nodes.len());
    for (node, _, link) in nodes {
        ids.push(sim.add_node(node));
        links.push(link);
    }
    let switch = SwitchNode::new("s0", pl, SwitchConfig::default());
    let switch = sim.add_node(Box::new(Timed::new(switch)));
    for (id, link) in ids.iter().zip(links) {
        sim.connect(*id, switch, link);
    }
    (sim, ids)
}
