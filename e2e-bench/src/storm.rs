//! `rack_storm`: F5's 100 k-host rack-ring storm, timed at one shard and
//! checked at two.
//!
//! The nodes follow `rdv-bench`'s storm workload (intra-rack echo bounces
//! plus hop-bounded trunk relays around the switch ring), with one change
//! the benchmark needs: each host's bounce budget is drawn from the seed
//! (8 + Binomial(32, 1/4): mean 16 as in F5, with a tail so that ≥ 10
//! chains lie beyond the p99), so inputs differ per seed, and every host
//! records when its chain completes — the op's sim latency.
//! Only the engine and these nodes run: no protocol crate is involved.
//!
//! The timed runs use one shard. At two shards the engine spawns a worker
//! per shard for every lookahead window (thousands per run), so on a host
//! with few cores the wall time measures the OS scheduler more than the
//! engine. The two-shard run is still made once, as the output check
//! (it must equal the one-shard run) and as the source of the sharded
//! engine's per-layer counts.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_netsim::topo::build_rack_ring;
use rdv_netsim::{LinkSpec, Node, NodeCtx, NodeId, Packet, PortId, Sim, SimConfig, SimTime};

use crate::outcome::{busy_of, node, Outcome, Prepared};
use crate::shim::{Classify, Timed};

/// Fabric and traffic shape.
#[derive(Debug, Clone, Copy)]
pub struct Storm {
    /// Top-of-rack switches in the trunk ring.
    pub racks: usize,
    /// Hosts under each switch.
    pub hosts_per_rack: usize,
    /// Packets each host launches at start.
    pub burst: u64,
    /// Bounce budgets are this floor plus a Binomial(`bounce_trials`, 1/4)
    /// draw per host.
    pub bounce_floor: u64,
    /// Trials of the budget's binomial part.
    pub bounce_trials: u32,
    /// Ring packets each switch launches at start.
    pub ring_packets: u64,
    /// Host link latency, ns.
    pub host_link_ns: u64,
    /// Engine shards of the timed runs.
    pub shards: usize,
    /// Engine shards of the check run, which must equal the timed run.
    pub check_shards: usize,
}

/// 256 racks × 400 hosts, burst 2, ~16 bounces, 32 ring packets doing one
/// trunk lap, timed at one shard and checked at two. Hosts never contend (each echoes on its own
/// link), so a chain's time is its budget times a fixed round trip; the
/// seed therefore also draws the host link latency (490–510 ns around
/// F5's 500 ns), without which the latency quantiles would read the same
/// on every seed.
pub fn rack_storm(seed: u64) -> Storm {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11CC);
    Storm {
        host_link_ns: rng.gen_range(490..=510),
        racks: 256,
        hosts_per_rack: 400,
        burst: 2,
        bounce_floor: 8,
        bounce_trials: 32,
        ring_packets: 32,
        shards: 1,
        check_shards: 2,
    }
}

/// Host edge link: 8 Gbps, F5's.
fn host_link(latency_ns: u64) -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_nanos(latency_ns),
        bandwidth_bps: 8_000_000_000,
        queue_bytes: 1 << 20,
        loss_permille: 0,
    }
}

/// Inter-switch trunk link: 2 µs / 40 Gbps (F5's).
fn trunk_link() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_micros(2),
        bandwidth_bps: 40_000_000_000,
        queue_bytes: 1 << 22,
        loss_permille: 0,
    }
}

/// Storms its uplink and bounces every echo until its budget is spent.
pub struct StormHost {
    burst: u64,
    remaining: u64,
    done_ns: Option<u64>,
}

impl Node for StormHost {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..self.burst {
            ctx.send(PortId(0), Packet::new(vec![0u8; 64], i));
        }
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.send(port, packet);
            if self.remaining == 0 {
                self.done_ns = Some(ctx.now.as_nanos());
            }
        }
    }
    fn name(&self) -> &str {
        "host"
    }
}

/// Echoes host traffic; relays trunk traffic to the next switch until the
/// packet's hop budget (carried in `trace`) is spent.
pub struct RingSwitch {
    host_ports: usize,
    next_trunk: PortId,
    ring_packets: u64,
    ring_hops: u64,
}

impl Node for RingSwitch {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for _ in 0..self.ring_packets {
            ctx.send(self.next_trunk, Packet::new(vec![0u8; 128], self.ring_hops));
        }
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        if port.0 < self.host_ports {
            ctx.send(port, packet);
        } else if packet.trace > 0 {
            ctx.send(self.next_trunk, Packet::new(packet.payload, packet.trace - 1));
        }
    }
    fn name(&self) -> &str {
        "switch"
    }
}

impl Classify for StormHost {}
impl Classify for RingSwitch {}

/// Build the ring at `shards` (0 = the workload's own count).
pub fn prepare(s: &Storm, seed: u64, shards: usize, traced: bool) -> Prepared {
    let hosts = s.racks * s.hosts_per_rack;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5707);
    let budgets: Vec<u64> = (0..hosts)
        .map(|_| {
            s.bounce_floor
                + (0..s.bounce_trials).filter(|_| rng.gen_range(0..4) == 0).count() as u64
        })
        .collect();

    let t = Instant::now();
    let shards = if shards == 0 { s.shards } else { shards };
    let mut sim = Sim::new(SimConfig { seed, shards, ..Default::default() });
    let (hpr, burst, ring_packets) = (s.hosts_per_rack, s.burst, s.ring_packets);
    let ring_hops = s.racks as u64;
    let ring = build_rack_ring(
        &mut sim,
        s.racks,
        hpr,
        |_| {
            // Host links are wired first, so the first trunk port leads
            // to the next switch in the ring.
            let sw =
                RingSwitch { host_ports: hpr, next_trunk: PortId(hpr), ring_packets, ring_hops };
            if traced {
                Box::new(Timed::new(sw)) as Box<dyn Node>
            } else {
                Box::new(sw)
            }
        },
        |i| {
            let h = StormHost { burst, remaining: budgets[i], done_ns: None };
            if traced {
                Box::new(Timed::new(h)) as Box<dyn Node>
            } else {
                Box::new(h)
            }
        },
        host_link(s.host_link_ns),
        trunk_link(),
    );
    let build_ns = t.elapsed().as_nanos() as u64;
    let (switches, hosts) = (ring.switches, ring.hosts);
    let collect = move |sim: &Sim| collect(sim, &switches, &hosts);
    Prepared { sim, until: None, generate_ns: 0, build_ns, collect: Box::new(collect) }
}

fn collect(sim: &Sim, switches: &[NodeId], hosts: &[NodeId]) -> Outcome {
    let mut out = Outcome { attempted: hosts.len() as u64, ..Outcome::default() };
    for &id in hosts {
        if let Some(done) = node::<StormHost>(sim, id).done_ns {
            // Every chain starts at t = 0, so completion time is latency.
            out.latencies_ns.push(done);
        }
        if let Some([b, _]) = busy_of::<StormHost>(sim, id) {
            out.charge("storm", &b);
        }
    }
    for &id in switches {
        if let Some([b, _]) = busy_of::<RingSwitch>(sim, id) {
            out.charge("storm", &b);
        }
    }
    out.read_engine(sim);
    out
}
