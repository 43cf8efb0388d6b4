//! The RPC server node.

use rdv_det::DetMap;

use rdv_netsim::{Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::ObjId;

use crate::proto::{RpcBody, RpcMsg};
use crate::service::Service;

/// An RPC server: a host inbox plus registered services.
pub struct ServerNode {
    label: String,
    inbox: ObjId,
    services: DetMap<u32, Box<dyn Service>>,
    /// Fixed per-request software overhead (request parse, scheduling).
    pub base_delay: SimTime,
    next_trace: u64,
    /// Requests served (including errors).
    pub requests: u64,
}

impl ServerNode {
    /// Create a server reachable at `inbox`.
    pub fn new(label: impl Into<String>, inbox: ObjId) -> ServerNode {
        ServerNode {
            label: label.into(),
            inbox,
            services: DetMap::new(),
            base_delay: SimTime::from_micros(2),
            next_trace: 1,
            requests: 0,
        }
    }

    /// The server's inbox.
    pub fn inbox(&self) -> ObjId {
        self.inbox
    }

    /// Register `service` under `id`.
    pub fn register(&mut self, id: u32, service: Box<dyn Service>) {
        self.services.insert(id, service);
    }

    /// Borrow a registered service, downcast to its concrete type.
    pub fn service_as<T: Service>(&self, id: u32) -> Option<&T> {
        self.services.get(&id).and_then(|s| (s.as_ref() as &dyn std::any::Any).downcast_ref())
    }

    fn reply_later(&mut self, ctx: &mut NodeCtx<'_>, delay: SimTime, msg: RpcMsg) {
        let trace = self.next_trace;
        self.next_trace += 1;
        ctx.send_after(delay, PortId(0), Packet::new(msg.encode(), trace));
    }
}

impl Node for ServerNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(Some(msg)) = RpcMsg::decode(&packet.payload) else { return };
        if msg.dst != self.inbox {
            return; // flooded copy for someone else
        }
        if let RpcBody::Request { req, service, method, args } = msg.body {
            self.requests += 1;
            let reply_body = match self.services.get_mut(&service) {
                Some(svc) => match svc.dispatch(method, &args) {
                    Ok(reply) => {
                        let delay = self.base_delay + SimTime::from_nanos(reply.compute_ns);
                        let out = RpcMsg::new(
                            msg.src,
                            self.inbox,
                            RpcBody::Response { req, payload: reply.payload },
                        );
                        self.reply_later(ctx, delay, out);
                        return;
                    }
                    Err(e) => RpcBody::Error { req, code: e.code() },
                },
                None => RpcBody::Error {
                    req,
                    code: crate::error::RpcError::NoSuchService(service).code(),
                },
            };
            let out = RpcMsg::new(msg.src, self.inbox, reply_body);
            let delay = self.base_delay;
            self.reply_later(ctx, delay, out);
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::EchoService;

    #[test]
    fn register_and_introspect() {
        let mut s = ServerNode::new("srv", ObjId(0xF00));
        s.register(1, Box::new(EchoService::default()));
        assert!(s.service_as::<EchoService>(1).is_some());
        assert!(s.service_as::<EchoService>(2).is_none());
        assert_eq!(s.inbox(), ObjId(0xF00));
    }
}
