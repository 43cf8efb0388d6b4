//! The SDN controller.
//!
//! §4: *"in the controller scheme, hosts notify controllers about objects,
//! which are then responsible for updating forwarding tables of switches."*
//!
//! The controller hangs off every switch on a dedicated control link. At
//! start it installs routes for every host inbox (bootstrap, so replies and
//! advertisements can flow); on each `Advertise` it installs an exact-match
//! object route on every switch, pointing along the shortest path towards
//! the advertising host.

use rdv_det::DetMap;

use rdv_memproto::msg::{Msg, MsgBody};
use rdv_netsim::{Node, NodeCtx, Packet, PortId, SimTime};
use rdv_objspace::ObjId;
use rdv_p4rt::pipeline::ControlMsg;

/// Per-switch programming info the controller needs.
#[derive(Debug, Clone)]
pub struct SwitchInfo {
    /// The controller-side port of the control link to this switch.
    pub control_port: PortId,
    /// host inbox → egress port *on that switch* towards the host.
    pub host_egress: DetMap<ObjId, u16>,
}

/// The controller node.
pub struct ControllerNode {
    label: String,
    switches: Vec<SwitchInfo>,
    /// Processing delay between receiving an advertisement and emitting
    /// rule installs.
    pub processing_delay: SimTime,
    /// Advertisements handled.
    pub advertisements: u64,
    /// Rules pushed to switches.
    pub installs: u64,
    /// Object → holder inbox, as the controller currently believes.
    pub directory: DetMap<ObjId, ObjId>,
}

impl ControllerNode {
    /// Build a controller that programs `switches`.
    pub fn new(label: impl Into<String>, switches: Vec<SwitchInfo>) -> ControllerNode {
        ControllerNode {
            label: label.into(),
            switches,
            processing_delay: SimTime::from_micros(10),
            advertisements: 0,
            installs: 0,
            directory: DetMap::new(),
        }
    }

    /// Emit install messages routing `obj` towards `holder` on every switch.
    fn program_object(&mut self, obj: ObjId, holder: ObjId) -> Vec<(PortId, Vec<u8>)> {
        let mut out = Vec::new();
        for sw in &self.switches {
            if let Some(&egress) = sw.host_egress.get(&holder) {
                let m =
                    ControlMsg::InstallExact { table: 0, key: vec![obj.as_u128()], port: egress };
                out.push((sw.control_port, m.encode()));
                self.installs += 1;
            }
        }
        self.directory.insert(obj, holder);
        out
    }
}

impl Node for ControllerNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Bootstrap: install routes for every host inbox on every switch.
        let inboxes: Vec<ObjId> = {
            let mut v: Vec<ObjId> =
                self.switches.iter().flat_map(|s| s.host_egress.keys().copied()).collect();
            v.sort();
            v.dedup();
            v
        };
        for inbox in inboxes {
            for (port, bytes) in self.program_object(inbox, inbox) {
                ctx.send(port, Packet::new(bytes, 0));
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _port: PortId, packet: Packet) {
        let Ok(msg) = Msg::decode(&packet.payload) else { return };
        match msg.body {
            MsgBody::Advertise { obj } => {
                self.advertisements += 1;
                ctx.trace.mark("controller.advertise", obj.lo());
                let holder = msg.header.src;
                let sends = self.program_object(obj, holder);
                ctx.trace.mark("controller.install", sends.len() as u64);
                for (port, bytes) in sends {
                    ctx.send_after(self.processing_delay, port, Packet::new(bytes, 0));
                }
            }
            // Explicitly ignored (D7): the controller's only wire input is
            // holder advertisements — data-plane traffic (reads, writes,
            // images, invokes), coherence/invalidate messages, discovery
            // round-trips, and reliable-transport frames never address it.
            MsgBody::ReadReq { .. }
            | MsgBody::ReadResp { .. }
            | MsgBody::WriteReq { .. }
            | MsgBody::WriteAck { .. }
            | MsgBody::ObjImageReq { .. }
            | MsgBody::ObjImageResp { .. }
            | MsgBody::ObjImageFrag { .. }
            | MsgBody::Invalidate { .. }
            | MsgBody::DirInvalidate { .. }
            | MsgBody::UpgradeReq { .. }
            | MsgBody::UpgradeAck { .. }
            | MsgBody::Nack { .. }
            | MsgBody::DiscoverReq { .. }
            | MsgBody::DiscoverResp { .. }
            | MsgBody::Invoke { .. }
            | MsgBody::InvokeResult { .. }
            | MsgBody::RelData { .. }
            | MsgBody::RelAck { .. }
            // Gossip anti-entropy is host-to-host; the controller scheme
            // never participates.
            | MsgBody::GossipDigest { .. }
            | MsgBody::GossipDelta { .. } => {}
        }
    }

    fn sample_metrics(&self, m: &mut rdv_netsim::metrics::MetricSample<'_>) {
        m.gauge("discovery.directory_size", self.directory.len() as u64);
    }

    fn audit(&self, a: &mut rdv_netsim::metrics::AuditScope<'_>) {
        a.declare_inbox(crate::CONTROLLER_INBOX.as_u128());
        for (obj, holder) in self.directory.iter() {
            a.claim_holder(obj.as_u128(), holder.as_u128());
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_object_targets_every_switch_with_a_path() {
        let mut h0 = DetMap::new();
        h0.insert(ObjId(0xA), 2u16);
        let mut h1 = DetMap::new();
        h1.insert(ObjId(0xA), 3u16);
        let mut c = ControllerNode::new(
            "ctl",
            vec![
                SwitchInfo { control_port: PortId(0), host_egress: h0 },
                SwitchInfo { control_port: PortId(1), host_egress: h1 },
            ],
        );
        let sends = c.program_object(ObjId(42), ObjId(0xA));
        assert_eq!(sends.len(), 2);
        assert_eq!(c.installs, 2);
        assert_eq!(c.directory.get(&ObjId(42)), Some(&ObjId(0xA)));
        // Each send decodes to an install for key 42.
        for (_, bytes) in sends {
            match ControlMsg::decode(&bytes) {
                Some(ControlMsg::InstallExact { key, .. }) => assert_eq!(key, vec![42]),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn unknown_holder_installs_nothing() {
        let mut c = ControllerNode::new(
            "ctl",
            vec![SwitchInfo { control_port: PortId(0), host_egress: DetMap::new() }],
        );
        let sends = c.program_object(ObjId(42), ObjId(0x999));
        assert!(sends.is_empty());
    }
}
