//! The RPC client node.
//!
//! Drives a plan of calls (scheduled via `Sim::schedule` with the plan
//! index as the timer tag) and records per-call latency. Clients also model
//! the *sender-side serialization cost*: a planned call may carry
//! `serialize_ns`, which the client spends (as simulated time) before the
//! request leaves — the producer half of the §2 cost story.

use rdv_det::DetMap;

use rdv_netsim::{Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::ObjId;

use crate::error::RpcError;
use crate::proto::{RpcBody, RpcMsg};

/// One planned call.
#[derive(Debug, Clone)]
pub struct PlannedCall {
    /// Server inbox (or middleware inbox when calling through a proxy).
    pub server: ObjId,
    /// Service ID.
    pub service: u32,
    /// Method ID.
    pub method: u32,
    /// Serialized arguments.
    pub args: Vec<u8>,
    /// Simulated sender-side serialization time before transmission.
    pub serialize_ns: u64,
    /// Look the server up by name through this discovery service first
    /// (adds the lookup round trip; experiment A2).
    pub lookup_via: Option<(ObjId, String)>,
    /// Give up after this long (0 = wait forever).
    pub timeout_ns: u64,
}

/// A completed call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Plan index.
    pub index: usize,
    /// Issue time (when the timer fired, before serialization).
    pub issued: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// The reply payload or the error.
    pub result: Result<Vec<u8>, RpcError>,
}

impl CallRecord {
    /// End-to-end latency including sender-side serialization.
    pub fn latency(&self) -> SimTime {
        self.completed.saturating_sub(self.issued)
    }
}

#[derive(Debug)]
enum PendingState {
    LookingUp { index: usize },
    Called { index: usize },
}

#[derive(Debug)]
struct Pending {
    issued: SimTime,
    state: PendingState,
}

/// The client node.
pub struct ClientNode {
    label: String,
    inbox: ObjId,
    /// The call plan; timer tag `i` issues `plan[i]`.
    pub plan: Vec<PlannedCall>,
    pending: DetMap<u64, Pending>,
    next_req: u64,
    next_trace: u64,
    /// Completed calls in completion order.
    pub records: Vec<CallRecord>,
}

/// Timer-tag bit marking a call deadline (low bits = req id).
const TIMEOUT: u64 = 1 << 61;

impl ClientNode {
    /// Create a client whose reply address is `inbox`.
    pub fn new(label: impl Into<String>, inbox: ObjId) -> ClientNode {
        ClientNode {
            label: label.into(),
            inbox,
            plan: Vec::new(),
            pending: DetMap::new(),
            next_req: 1,
            next_trace: 1,
            records: Vec::new(),
        }
    }

    /// The client's inbox.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    /// Calls still in flight.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    fn transmit(&mut self, ctx: &mut NodeCtx<'_>, msg: RpcMsg) {
        self.transmit_after(ctx, SimTime::ZERO, msg);
    }

    fn transmit_after(&mut self, ctx: &mut NodeCtx<'_>, delay: SimTime, msg: RpcMsg) {
        let trace = self.next_trace;
        self.next_trace += 1;
        ctx.send_after(delay, PortId(0), Packet::new(msg.encode(), trace));
    }

    fn issue(&mut self, ctx: &mut NodeCtx<'_>, index: usize) {
        let call = self.plan[index].clone();
        let req = self.next_req;
        self.next_req += 1;
        if call.timeout_ns > 0 {
            ctx.set_timer(SimTime::from_nanos(call.timeout_ns), TIMEOUT | req);
        }
        match &call.lookup_via {
            Some((directory, name)) => {
                self.pending.insert(
                    req,
                    Pending { issued: ctx.now, state: PendingState::LookingUp { index } },
                );
                let msg = RpcMsg::new(
                    *directory,
                    self.inbox,
                    RpcBody::Lookup { req, name: name.clone() },
                );
                self.transmit(ctx, msg);
            }
            None => {
                self.pending.insert(
                    req,
                    Pending { issued: ctx.now, state: PendingState::Called { index } },
                );
                self.send_request(ctx, req, call.server, &call);
            }
        }
    }

    fn send_request(&mut self, ctx: &mut NodeCtx<'_>, req: u64, server: ObjId, call: &PlannedCall) {
        let msg = RpcMsg::new(
            server,
            self.inbox,
            RpcBody::Request {
                req,
                service: call.service,
                method: call.method,
                args: call.args.clone(),
            },
        );
        // Request serialization time elapses before the bytes hit the wire.
        self.transmit_after(ctx, SimTime::from_nanos(call.serialize_ns), msg);
    }

    fn complete(&mut self, now: SimTime, req: u64, result: Result<Vec<u8>, RpcError>) {
        if let Some(p) = self.pending.remove(&req) {
            let index = match p.state {
                PendingState::Called { index } | PendingState::LookingUp { index } => index,
            };
            self.records.push(CallRecord { index, issued: p.issued, completed: now, result });
        }
    }
}

impl Node for ClientNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(msg)) = RpcMsg::decode(&packet.payload) else { return };
        if msg.dst != self.inbox {
            return;
        }
        match msg.body {
            RpcBody::Response { req, payload } => self.complete(ctx.now, req, Ok(payload)),
            RpcBody::Error { req, code } => {
                self.complete(ctx.now, req, Err(RpcError::from_code(code)));
            }
            RpcBody::LookupResp { req, server } => {
                let Some(p) = self.pending.get_mut(&req) else { return };
                let PendingState::LookingUp { index } = p.state else { return };
                if server.is_nil() {
                    self.complete(ctx.now, req, Err(RpcError::NoSuchService(0)));
                    return;
                }
                p.state = PendingState::Called { index };
                let call = self.plan[index].clone();
                self.send_request(ctx, req, server, &call);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag & TIMEOUT != 0 {
            let req = tag & !TIMEOUT;
            if self.pending.contains_key(&req) {
                self.complete(ctx.now, req, Err(RpcError::Timeout));
            }
        } else if (tag as usize) < self.plan.len() {
            self.issue(ctx, tag as usize);
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerNode;
    use crate::service::{echo_methods, EchoService};
    use rdv_netsim::{LinkSpec, Sim, SimConfig};

    fn wire_pair() -> (Sim, rdv_netsim::NodeId, rdv_netsim::NodeId) {
        let mut sim = Sim::new(SimConfig::default());
        let mut client = ClientNode::new("cli", ObjId(0xC));
        client.plan = vec![PlannedCall {
            server: ObjId(0x5),
            service: 1,
            method: echo_methods::ECHO,
            args: b"ping".to_vec(),
            serialize_ns: 0,
            lookup_via: None,
            timeout_ns: 0,
        }];
        let mut server = ServerNode::new("srv", ObjId(0x5));
        server.register(1, Box::new(EchoService::default()));
        let c = sim.add_node(Box::new(client));
        let s = sim.add_node(Box::new(server));
        sim.connect(c, s, LinkSpec::rack());
        (sim, c, s)
    }

    #[test]
    fn call_roundtrip_on_a_wire() {
        let (mut sim, c, s) = wire_pair();
        sim.schedule(SimTime::from_micros(1), c, 0);
        sim.run_until_idle();
        let client = sim.node_as::<ClientNode>(c).unwrap();
        assert_eq!(client.records.len(), 1);
        assert_eq!(client.records[0].result.as_deref(), Ok(&b"ping"[..]));
        assert!(client.records[0].latency() > SimTime::ZERO);
        assert_eq!(sim.node_as::<ServerNode>(s).unwrap().requests, 1);
    }

    #[test]
    fn serialization_delay_shows_up_in_latency() {
        let (mut sim0, c0, _) = wire_pair();
        sim0.schedule(SimTime::from_micros(1), c0, 0);
        sim0.run_until_idle();
        let base = sim0.node_as::<ClientNode>(c0).unwrap().records[0].latency();

        let (mut sim1, c1, _) = wire_pair();
        sim1.node_as_mut::<ClientNode>(c1).unwrap().plan[0].serialize_ns = 50_000;
        sim1.schedule(SimTime::from_micros(1), c1, 0);
        sim1.run_until_idle();
        let slow = sim1.node_as::<ClientNode>(c1).unwrap().records[0].latency();
        assert_eq!(slow - base, SimTime::from_nanos(50_000));
    }

    #[test]
    fn timeout_fires_when_the_server_never_answers() {
        // Client wired to a sink that swallows requests.
        struct Blackhole;
        impl rdv_netsim::Node for Blackhole {
            fn on_packet(&mut self, _: &mut NodeCtx<'_>, _: PortId, _: rdv_netsim::Packet) {}
        }
        let mut sim = rdv_netsim::Sim::new(rdv_netsim::SimConfig::default());
        let mut client = ClientNode::new("cli", ObjId(0xC));
        client.plan = vec![PlannedCall {
            server: ObjId(0xDEAD),
            service: 1,
            method: 0,
            args: vec![],
            serialize_ns: 0,
            lookup_via: None,
            timeout_ns: 500_000, // 500 µs deadline
        }];
        let c = sim.add_node(Box::new(client));
        let b = sim.add_node(Box::new(Blackhole));
        sim.connect(c, b, rdv_netsim::LinkSpec::rack());
        sim.schedule(SimTime::from_micros(1), c, 0);
        sim.run_until_idle();
        let client = sim.node_as::<ClientNode>(c).unwrap();
        assert_eq!(client.records.len(), 1);
        assert_eq!(client.records[0].result, Err(RpcError::Timeout));
        assert_eq!(client.records[0].latency(), SimTime::from_micros(500));
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn timeout_does_not_fire_on_answered_calls() {
        let (mut sim, c, _) = wire_pair();
        sim.node_as_mut::<ClientNode>(c).unwrap().plan[0].timeout_ns = 10_000_000;
        sim.schedule(SimTime::from_micros(1), c, 0);
        sim.run_until_idle();
        let client = sim.node_as::<ClientNode>(c).unwrap();
        assert_eq!(client.records.len(), 1, "no duplicate timeout record");
        assert!(client.records[0].result.is_ok());
    }

    #[test]
    fn unknown_service_yields_error_record() {
        let (mut sim, c, _) = wire_pair();
        sim.node_as_mut::<ClientNode>(c).unwrap().plan[0].service = 99;
        sim.schedule(SimTime::from_micros(1), c, 0);
        sim.run_until_idle();
        let client = sim.node_as::<ClientNode>(c).unwrap();
        assert!(client.records[0].result.is_err());
        assert_eq!(client.outstanding(), 0);
    }
}
