//! The middleware the paper says operators deploy to soften RPC's
//! location-coupling (§1): *"data center operators often deploy discovery
//! services, load balancers, or other forms of middleware … These extra
//! indirection layers make the execution endpoint abstract, but at the cost
//! of increased latency and added system complexity."*
//!
//! Experiment A2 measures exactly that cost by inserting these nodes
//! between client and server.

use rdv_det::DetMap;

use rdv_netsim::{Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::ObjId;

use crate::proto::{RpcBody, RpcMsg};

/// A round-robin L7 load balancer: proxies requests to backends and relays
/// responses back to the original caller.
pub struct LoadBalancerNode {
    label: String,
    inbox: ObjId,
    backends: Vec<ObjId>,
    rr: usize,
    /// Per-request proxy processing time (per direction).
    pub proc_delay: SimTime,
    /// req → original caller inbox.
    inflight: DetMap<u64, ObjId>,
    next_trace: u64,
    /// Requests proxied.
    pub proxied: u64,
}

impl LoadBalancerNode {
    /// Balance across `backends`, reachable at `inbox`.
    pub fn new(label: impl Into<String>, inbox: ObjId, backends: Vec<ObjId>) -> LoadBalancerNode {
        assert!(!backends.is_empty(), "LB needs at least one backend");
        LoadBalancerNode {
            label: label.into(),
            inbox,
            backends,
            rr: 0,
            proc_delay: SimTime::from_micros(5),
            inflight: DetMap::new(),
            next_trace: 1,
            proxied: 0,
        }
    }

    /// The LB's inbox.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    fn forward_later(&mut self, ctx: &mut NodeCtx<'_>, msg: RpcMsg) {
        let trace = self.next_trace;
        self.next_trace += 1;
        ctx.send_after(self.proc_delay, PortId(0), Packet::new(msg.encode(), trace));
    }
}

impl Node for LoadBalancerNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(msg)) = RpcMsg::decode(&packet.payload) else { return };
        if msg.dst != self.inbox {
            return;
        }
        match msg.body {
            RpcBody::Request { req, service, method, args } => {
                self.proxied += 1;
                let backend = self.backends[self.rr % self.backends.len()];
                self.rr += 1;
                self.inflight.insert(req, msg.src);
                // The proxy speaks for the client: replies come back here.
                let fwd = RpcMsg::new(
                    backend,
                    self.inbox,
                    RpcBody::Request { req, service, method, args },
                );
                self.forward_later(ctx, fwd);
            }
            RpcBody::Response { req, payload } => {
                if let Some(caller) = self.inflight.remove(&req) {
                    let back = RpcMsg::new(caller, self.inbox, RpcBody::Response { req, payload });
                    self.forward_later(ctx, back);
                }
            }
            RpcBody::Error { req, code } => {
                if let Some(caller) = self.inflight.remove(&req) {
                    let back = RpcMsg::new(caller, self.inbox, RpcBody::Error { req, code });
                    self.forward_later(ctx, back);
                }
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// A name → server discovery service (the lookup half of service meshes).
pub struct DiscoveryServiceNode {
    label: String,
    inbox: ObjId,
    directory: DetMap<String, ObjId>,
    /// Lookup processing time.
    pub proc_delay: SimTime,
    next_trace: u64,
    /// Lookups served.
    pub lookups: u64,
}

impl DiscoveryServiceNode {
    /// Create a directory service at `inbox`.
    pub fn new(label: impl Into<String>, inbox: ObjId) -> DiscoveryServiceNode {
        DiscoveryServiceNode {
            label: label.into(),
            inbox,
            directory: DetMap::new(),
            proc_delay: SimTime::from_micros(5),
            next_trace: 1,
            lookups: 0,
        }
    }

    /// The directory's inbox.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    /// Register that `name` is served at `server`.
    pub fn register(&mut self, name: impl Into<String>, server: ObjId) {
        self.directory.insert(name.into(), server);
    }
}

impl Node for DiscoveryServiceNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(msg)) = RpcMsg::decode(&packet.payload) else { return };
        if msg.dst != self.inbox {
            return;
        }
        if let RpcBody::Lookup { req, name } = msg.body {
            self.lookups += 1;
            let server = self.directory.get(&name).copied().unwrap_or(ObjId::NIL);
            let reply = RpcMsg::new(msg.src, self.inbox, RpcBody::LookupResp { req, server });
            let trace = self.next_trace;
            self.next_trace += 1;
            ctx.send_after(self.proc_delay, PortId(0), Packet::new(reply.encode(), trace));
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientNode, PlannedCall};
    use crate::server::ServerNode;
    use crate::service::{echo_methods, EchoService};
    use rdv_netsim::{LinkSpec, NodeId, Sim, SimConfig};
    use rdv_p4rt::header::objnet_format;
    use rdv_p4rt::pipeline::{Pipeline, SwitchConfig, SwitchNode};
    use rdv_p4rt::table::{Action, MatchKind, Table};

    /// Star topology: client, servers, middleware all on one learning
    /// switch (flood-on-miss trains inbox routes automatically).
    fn star(nodes: Vec<Box<dyn Node>>) -> (Sim, Vec<NodeId>) {
        let mut sim = Sim::new(SimConfig::default());
        let mut pl = Pipeline::new(objnet_format(), Action::Flood);
        pl.add_table(Table::new(
            "objroute",
            vec![rdv_p4rt::header::OBJNET_DST_OBJ],
            MatchKind::Exact,
            128,
            rdv_p4rt::capacity::SramBudget::tofino(),
        ));
        let cfg = SwitchConfig { learn_src_routes: true, dedup_floods: true, ..Default::default() };
        let hub = sim.add_node(Box::new(SwitchNode::new("hub", pl, cfg)));
        let ids: Vec<NodeId> = nodes.into_iter().map(|n| sim.add_node(n)).collect();
        for &id in &ids {
            sim.connect(id, hub, LinkSpec::rack());
        }
        (sim, ids)
    }

    #[test]
    fn lb_proxies_and_round_robins() {
        let mut s1 = ServerNode::new("s1", ObjId(0x51));
        s1.register(1, Box::new(EchoService::default()));
        let mut s2 = ServerNode::new("s2", ObjId(0x52));
        s2.register(1, Box::new(EchoService::default()));
        let lb = LoadBalancerNode::new("lb", ObjId(0x1B), vec![ObjId(0x51), ObjId(0x52)]);
        let mut client = ClientNode::new("cli", ObjId(0xC));
        for _ in 0..4 {
            client.plan.push(PlannedCall {
                server: ObjId(0x1B), // call THROUGH the LB
                service: 1,
                method: echo_methods::ECHO,
                args: b"x".to_vec(),
                serialize_ns: 0,
                lookup_via: None,
                timeout_ns: 0,
            });
        }
        let (mut sim, ids) = star(vec![Box::new(client), Box::new(s1), Box::new(s2), Box::new(lb)]);
        for i in 0..4u64 {
            sim.schedule(SimTime::from_micros(100 + 200 * i), ids[0], i);
        }
        sim.run_until_idle();
        let cli = sim.node_as::<ClientNode>(ids[0]).unwrap();
        assert_eq!(cli.records.len(), 4);
        assert!(cli.records.iter().all(|r| r.result.is_ok()));
        // Round robin: each backend saw 2.
        assert_eq!(sim.node_as::<ServerNode>(ids[1]).unwrap().requests, 2);
        assert_eq!(sim.node_as::<ServerNode>(ids[2]).unwrap().requests, 2);
        assert_eq!(sim.node_as::<LoadBalancerNode>(ids[3]).unwrap().proxied, 4);
    }

    #[test]
    fn lb_adds_latency_over_direct() {
        // Direct call.
        let mut s = ServerNode::new("s", ObjId(0x51));
        s.register(1, Box::new(EchoService::default()));
        let mut direct = ClientNode::new("cli", ObjId(0xC));
        direct.plan.push(PlannedCall {
            server: ObjId(0x51),
            service: 1,
            method: echo_methods::ECHO,
            args: b"x".to_vec(),
            serialize_ns: 0,
            lookup_via: None,
            timeout_ns: 0,
        });
        let (mut sim, ids) = star(vec![Box::new(direct), Box::new(s)]);
        sim.schedule(SimTime::from_micros(100), ids[0], 0);
        sim.run_until_idle();
        let direct_lat = sim.node_as::<ClientNode>(ids[0]).unwrap().records[0].latency();

        // Via LB.
        let mut s = ServerNode::new("s", ObjId(0x51));
        s.register(1, Box::new(EchoService::default()));
        let lb = LoadBalancerNode::new("lb", ObjId(0x1B), vec![ObjId(0x51)]);
        let mut via = ClientNode::new("cli", ObjId(0xC));
        via.plan.push(PlannedCall {
            server: ObjId(0x1B),
            service: 1,
            method: echo_methods::ECHO,
            args: b"x".to_vec(),
            serialize_ns: 0,
            lookup_via: None,
            timeout_ns: 0,
        });
        let (mut sim, ids) = star(vec![Box::new(via), Box::new(s), Box::new(lb)]);
        sim.schedule(SimTime::from_micros(100), ids[0], 0);
        sim.run_until_idle();
        let lb_lat = sim.node_as::<ClientNode>(ids[0]).unwrap().records[0].latency();
        assert!(
            lb_lat > direct_lat + SimTime::from_micros(8),
            "LB must add ≥ 2×proc_delay: {lb_lat} vs {direct_lat}"
        );
    }

    #[test]
    fn discovery_service_lookup_then_call() {
        let mut s = ServerNode::new("s", ObjId(0x51));
        s.register(1, Box::new(EchoService::default()));
        let mut dir = DiscoveryServiceNode::new("dir", ObjId(0xD1));
        dir.register("echo", ObjId(0x51));
        let mut client = ClientNode::new("cli", ObjId(0xC));
        client.plan.push(PlannedCall {
            server: ObjId::NIL, // resolved via lookup
            service: 1,
            method: echo_methods::ECHO,
            args: b"x".to_vec(),
            serialize_ns: 0,
            lookup_via: Some((ObjId(0xD1), "echo".into())),
            timeout_ns: 0,
        });
        client.plan.push(PlannedCall {
            server: ObjId::NIL,
            service: 1,
            method: echo_methods::ECHO,
            args: b"x".to_vec(),
            serialize_ns: 0,
            lookup_via: Some((ObjId(0xD1), "missing".into())),
            timeout_ns: 0,
        });
        let (mut sim, ids) = star(vec![Box::new(client), Box::new(s), Box::new(dir)]);
        sim.schedule(SimTime::from_micros(100), ids[0], 0);
        sim.schedule(SimTime::from_micros(500), ids[0], 1);
        sim.run_until_idle();
        let cli = sim.node_as::<ClientNode>(ids[0]).unwrap();
        assert_eq!(cli.records.len(), 2);
        let ok = cli.records.iter().find(|r| r.index == 0).unwrap();
        assert!(ok.result.is_ok());
        let missing = cli.records.iter().find(|r| r.index == 1).unwrap();
        assert!(missing.result.is_err());
        assert_eq!(sim.node_as::<DiscoveryServiceNode>(ids[2]).unwrap().lookups, 2);
    }
}
