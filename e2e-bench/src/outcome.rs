//! What one workload run hands back, and the small statistics helpers the
//! runner reports with.

use std::collections::BTreeMap;

use rdv_netsim::{Node, NodeId, Sim, SimTime};

use crate::shim::{Busy, Classify, Timed};

/// A workload set up and ready to simulate: the fabric is built and every
/// input is scheduled, but no simulated event has run yet.
pub struct Prepared {
    /// The engine, loaded.
    pub sim: Sim,
    /// Run to this horizon, or until idle when `None` (a gossip plane
    /// re-arms its timers forever, so those workloads need a horizon).
    pub until: Option<SimTime>,
    /// Host nanoseconds spent in the `rdv-load` generators during set-up.
    pub generate_ns: u64,
    /// Host nanoseconds spent building the fabric during set-up.
    pub build_ns: u64,
    /// Turns the finished engine into an [`Outcome`].
    pub collect: Box<dyn FnOnce(&Sim) -> Outcome>,
}

impl Prepared {
    /// Simulate until every op of the workload has resolved.
    pub fn simulate(&mut self) {
        match self.until {
            Some(t) => self.sim.run_until(t),
            None => self.sim.run_until_idle(),
        };
    }

    /// Distill the finished run.
    pub fn finish(self) -> Outcome {
        (self.collect)(&self.sim)
    }
}

/// One run's results. Everything except [`Outcome::busy`] is a pure
/// function of the workload and seed, so two runs of one seed — traced or
/// not, at any shard count — must agree on [`Outcome::fingerprint`].
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops the workload's schedule offered.
    pub attempted: u64,
    /// Ops that gave up with a typed failure.
    pub typed_failed: u64,
    /// Sim latency of every completed op, ns, in canonical order.
    pub latencies_ns: Vec<u64>,
    /// Final sim clock, ns.
    pub clock_ns: u64,
    /// `sim.events`.
    pub events: u64,
    /// `sim.packets_delivered`.
    pub packets_delivered: u64,
    /// Deterministic per-layer counts, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
    /// A full counter tally, name-ordered, where the workload has one.
    pub tally: Vec<(String, u64)>,
    /// Engine execution statistics (`sim.shard.*`); they depend on the
    /// shard count, so they stay out of the fingerprint.
    pub exec: BTreeMap<&'static str, f64>,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
    /// Handler busy time per layer (traced runs only; host time, so it is
    /// never part of the fingerprint).
    pub busy: BTreeMap<&'static str, Busy>,
}

impl Outcome {
    /// Ops that never resolved: neither completed nor failed typed.
    pub fn unresolved(&self) -> u64 {
        self.attempted - self.latencies_ns.len() as u64 - self.typed_failed
    }

    /// Typed failures plus unresolved ops.
    pub fn failed(&self) -> u64 {
        self.typed_failed + self.unresolved()
    }

    /// FNV-1a over every deterministic field.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for v in [self.attempted, self.typed_failed, self.clock_ns, self.events] {
            mix(v);
        }
        mix(self.packets_delivered);
        self.latencies_ns.iter().for_each(|&l| mix(l));
        for (name, v) in &self.counts {
            name.bytes().for_each(|b| mix(u64::from(b)));
            mix(v.to_bits());
        }
        for (name, v) in &self.tally {
            name.bytes().for_each(|b| mix(u64::from(b)));
            mix(*v);
        }
        h
    }

    /// Read the engine's own results: clock, events, deliveries, timers,
    /// drops, and the shard execution statistics.
    pub fn read_engine(&mut self, sim: &Sim) {
        self.clock_ns = sim.now().as_nanos();
        self.events = sim.counters.get("sim.events");
        self.packets_delivered = sim.counters.get("sim.packets_delivered");
        self.counts.insert("netsim.timers", sim.counters.get("sim.timers") as f64);
        self.counts
            .insert("netsim.packets_dropped", sim.counters.get("sim.packets_dropped") as f64);
        let exec = sim.exec_stats();
        self.exec.insert("netsim.shard.windows", exec.get("sim.shard.windows") as f64);
        self.exec
            .insert("netsim.shard.xshard_packets", exec.get("sim.shard.xshard_packets") as f64);
    }

    /// Charge `busy` to `layer`.
    pub fn charge(&mut self, layer: &'static str, busy: &Busy) {
        self.busy.entry(layer).or_default().add(busy);
    }
}

/// `id`'s node as `N`, whether it runs bare or inside the timing shim.
pub fn node<N: Node + Classify>(sim: &Sim, id: NodeId) -> &N {
    sim.node_as::<N>(id)
        .or_else(|| sim.node_as::<Timed<N>>(id).map(|t| &t.inner))
        .expect("node has the expected type")
}

/// `id`'s shim tallies, when it runs inside the timing shim.
pub fn busy_of<N: Node + Classify>(sim: &Sim, id: NodeId) -> Option<[Busy; 2]> {
    sim.node_as::<Timed<N>>(id).map(|t| t.busy)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `VmHWM` (this process's peak resident set) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
