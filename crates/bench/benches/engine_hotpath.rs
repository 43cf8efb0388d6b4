//! `engine_hotpath` — raw event-loop throughput (events/sec) under a
//! two-node packet storm.
//!
//! Two engines run the identical storm:
//!
//! * the real `rdv_netsim::Sim`, whose hot path uses interned counter IDs
//!   (`inc_id` = bounds check + index), a plain event-budget field, and
//!   `mem::take`n scratch action buffers (no steady-state allocation);
//! * a transcription of the seed engine's hot path (`seed` module below):
//!   string-keyed `BTreeMap` counters paying a `String` allocation per
//!   `inc`, a `counters.get("sim.events")` map lookup per event for the
//!   budget check, and per-callback owned action vectors.
//!
//! Everything else — heap discipline, link admission math, dyn node
//! dispatch, port lookup — is identical, so the throughput ratio isolates
//! the cost of the string-keyed bookkeeping the refactor removed.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rdv_netsim::{
    CounterId, Counters, LinkSpec, Node, NodeCtx, Packet, PortId, Sim, SimConfig, SimTime,
};

const BOUNCES: u64 = 10_000;
const WINDOW: u64 = 8;

fn storm_link() -> LinkSpec {
    LinkSpec {
        latency: SimTime::from_nanos(500),
        bandwidth_bps: 8_000_000_000,
        queue_bytes: 1 << 20,
        loss_permille: 0,
    }
}

/// Per-packet accounting every protocol node in this repo performs (see
/// `GasHostNode`, `SwitchNode`, `HostNode`): packet and byte counters on
/// both directions. Interned once at node construction.
struct HostCtr {
    rx_packets: CounterId,
    rx_bytes: CounterId,
    tx_packets: CounterId,
    tx_bytes: CounterId,
}

impl HostCtr {
    fn intern() -> HostCtr {
        HostCtr {
            rx_packets: CounterId::intern("host.rx_packets"),
            rx_bytes: CounterId::intern("host.rx_bytes"),
            tx_packets: CounterId::intern("host.tx_packets"),
            tx_bytes: CounterId::intern("host.tx_bytes"),
        }
    }
}

/// Sends a window of packets at start, then bounces every arrival back
/// until its budget is spent, keeping rx/tx accounts like a real host.
struct Storm {
    remaining: u64,
    counters: Counters,
    ctr: HostCtr,
}

impl Storm {
    fn new(remaining: u64) -> Storm {
        Storm { remaining, counters: Counters::new(), ctr: HostCtr::intern() }
    }
}

impl Node for Storm {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for i in 0..WINDOW {
            ctx.send(PortId(0), Packet::new(vec![0u8; 64], i));
        }
    }
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        self.counters.inc_id(self.ctr.rx_packets);
        self.counters.add_id(self.ctr.rx_bytes, packet.wire_len() as u64);
        if self.remaining > 0 {
            self.remaining -= 1;
            self.counters.inc_id(self.ctr.tx_packets);
            self.counters.add_id(self.ctr.tx_bytes, packet.wire_len() as u64);
            ctx.send(port, packet);
        }
    }
    fn name(&self) -> &str {
        "storm"
    }
}

/// Reflects every packet back out the port it arrived on, with the same
/// per-packet accounting.
struct Echo {
    counters: Counters,
    ctr: HostCtr,
}

impl Echo {
    fn new() -> Echo {
        Echo { counters: Counters::new(), ctr: HostCtr::intern() }
    }
}

impl Node for Echo {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        self.counters.inc_id(self.ctr.rx_packets);
        self.counters.add_id(self.ctr.rx_bytes, packet.wire_len() as u64);
        self.counters.inc_id(self.ctr.tx_packets);
        self.counters.add_id(self.ctr.tx_bytes, packet.wire_len() as u64);
        ctx.send(port, packet);
    }
    fn name(&self) -> &str {
        "echo"
    }
}

/// One full storm through the real engine. Returns events processed.
fn run_interned() -> u64 {
    let mut sim = Sim::new(SimConfig::default());
    let storm = sim.add_node(Box::new(Storm::new(BOUNCES)));
    let echo = sim.add_node(Box::new(Echo::new()));
    sim.connect(storm, echo, storm_link());
    sim.run_until_idle()
}

/// Transcription of the seed engine's hot path, trimmed to the features
/// the storm exercises (no RNG loss draws, no external timers — neither
/// fires in the interned run either). Kept deliberately line-for-line
/// close to the pre-refactor `rdv_netsim::engine`.
mod seed {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    use rdv_netsim::{LinkSpec, Packet, PortId, SimTime};

    /// The seed's `Counters`: string keys, `to_string()` on every touch.
    #[derive(Default)]
    pub struct StrCounters {
        inner: BTreeMap<String, u64>,
    }

    impl StrCounters {
        fn add(&mut self, name: &str, delta: u64) {
            *self.inner.entry(name.to_string()).or_insert(0) += delta;
        }
        fn inc(&mut self, name: &str) {
            self.add(name, 1);
        }
        fn get(&self, name: &str) -> u64 {
            self.inner.get(name).copied().unwrap_or(0)
        }
    }

    /// The seed's `NodeCtx`: action buffers owned by the context, born
    /// empty for every callback.
    pub struct Ctx {
        // Never read here, but constructed per callback exactly like the
        // seed's NodeCtx — the fresh `timers` Vec is part of the measured
        // allocation cost.
        #[allow(dead_code)]
        pub now: SimTime,
        pub sends: Vec<(PortId, Packet)>,
        #[allow(dead_code)]
        pub timers: Vec<(SimTime, u64)>,
    }

    impl Ctx {
        pub fn send(&mut self, port: PortId, packet: Packet) {
            self.sends.push((port, packet));
        }
    }

    /// Seed-shaped node behaviour (dyn-dispatched, like the real trait).
    pub trait Node {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let _ = ctx;
        }
        fn on_packet(&mut self, ctx: &mut Ctx, port: PortId, packet: Packet);
    }

    enum EventKind {
        Deliver {
            node: usize,
            port: PortId,
            packet: Packet,
        },
        #[allow(dead_code)]
        Timer {
            node: usize,
            tag: u64,
        },
    }

    struct Event {
        at: SimTime,
        seq: u64,
        kind: EventKind,
    }

    impl PartialEq for Event {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Event {}
    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Event {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    /// The seed's `Direction::admit`, verbatim (u128 backlog/tx math).
    #[derive(Default, Clone, Copy)]
    struct Direction {
        next_free: SimTime,
    }

    impl Direction {
        fn admit(&mut self, spec: &LinkSpec, now: SimTime, bytes: usize) -> Option<SimTime> {
            let backlog_ns = self.next_free.saturating_sub(now).as_nanos();
            let backlog_bytes =
                (backlog_ns as u128 * spec.bandwidth_bps as u128) / (8 * 1_000_000_000);
            if backlog_bytes + bytes as u128 > spec.queue_bytes as u128 {
                return None;
            }
            let start = self.next_free.max(now);
            let tx = (bytes as u128 * 8 * 1_000_000_000) / spec.bandwidth_bps as u128;
            let done = start + SimTime::from_nanos(tx as u64);
            self.next_free = done;
            Some(done + spec.latency)
        }
    }

    struct Link {
        spec: LinkSpec,
        ends: [(usize, PortId); 2],
        dirs: [Direction; 2],
    }

    impl Link {
        fn direction_from(&self, from: usize, port: PortId) -> Option<(usize, usize, PortId)> {
            if self.ends[0] == (from, port) {
                Some((0, self.ends[1].0, self.ends[1].1))
            } else if self.ends[1] == (from, port) {
                Some((1, self.ends[0].0, self.ends[0].1))
            } else {
                None
            }
        }
    }

    /// The seed engine, minus the features the storm never exercises.
    pub struct SeedSim {
        clock: SimTime,
        seq: u64,
        nodes: Vec<Box<dyn Node>>,
        ports: Vec<Vec<usize>>,
        links: Vec<Link>,
        heap: BinaryHeap<Reverse<Event>>,
        pub counters: StrCounters,
        max_events: u64,
    }

    impl SeedSim {
        pub fn new() -> SeedSim {
            SeedSim {
                clock: SimTime::ZERO,
                seq: 0,
                nodes: Vec::new(),
                ports: Vec::new(),
                links: Vec::new(),
                heap: BinaryHeap::new(),
                counters: StrCounters::default(),
                max_events: 200_000_000,
            }
        }

        pub fn add_node(&mut self, node: Box<dyn Node>) -> usize {
            self.nodes.push(node);
            self.ports.push(Vec::new());
            self.ports.len() - 1
        }

        pub fn connect(&mut self, a: usize, b: usize, spec: LinkSpec) {
            let pa = PortId(self.ports[a].len());
            let pb = PortId(self.ports[b].len());
            let id = self.links.len();
            self.links.push(Link {
                spec,
                ends: [(a, pa), (b, pb)],
                dirs: [Direction::default(); 2],
            });
            self.ports[a].push(id);
            self.ports[b].push(id);
        }

        fn apply_actions(&mut self, node: usize, sends: Vec<(PortId, Packet)>) {
            for (port, packet) in sends {
                self.counters.inc("sim.packets_sent");
                let Some(&link_id) = self.ports[node].get(port.0) else {
                    self.counters.inc("sim.packets_dropped.bad_port");
                    continue;
                };
                let link = &mut self.links[link_id];
                let Some((dir, dst, dst_port)) = link.direction_from(node, port) else {
                    self.counters.inc("sim.packets_dropped.bad_port");
                    continue;
                };
                let spec = link.spec;
                match link.dirs[dir].admit(&spec, self.clock, packet.wire_len()) {
                    Some(arrival) => {
                        let seq = self.seq;
                        self.seq += 1;
                        self.heap.push(Reverse(Event {
                            at: arrival,
                            seq,
                            kind: EventKind::Deliver { node: dst, port: dst_port, packet },
                        }));
                    }
                    None => {
                        self.counters.inc("sim.packets_dropped");
                    }
                }
            }
        }

        pub fn run_until_idle(&mut self) -> u64 {
            // start_if_needed
            for i in 0..self.nodes.len() {
                let mut ctx = Ctx { now: self.clock, sends: Vec::new(), timers: Vec::new() };
                self.nodes[i].on_start(&mut ctx);
                self.apply_actions(i, ctx.sends);
            }
            let mut processed = 0u64;
            while let Some(Reverse(ev)) = self.heap.peek() {
                let _ = ev;
                // Seed path: per-event budget check through the counter map.
                if self.counters.get("sim.events") >= self.max_events {
                    panic!("event storm");
                }
                let Reverse(ev) = self.heap.pop().unwrap();
                self.clock = ev.at;
                self.counters.inc("sim.events");
                processed += 1;
                match ev.kind {
                    EventKind::Deliver { node, port, packet } => {
                        self.counters.inc("sim.packets_delivered");
                        // Seed path: fresh action buffers per callback.
                        let mut ctx =
                            Ctx { now: self.clock, sends: Vec::new(), timers: Vec::new() };
                        self.nodes[node].on_packet(&mut ctx, port, packet);
                        self.apply_actions(node, ctx.sends);
                    }
                    EventKind::Timer { node, .. } => {
                        self.counters.inc("sim.timers");
                        let mut ctx =
                            Ctx { now: self.clock, sends: Vec::new(), timers: Vec::new() };
                        let _ = &mut ctx;
                        self.apply_actions(node, ctx.sends);
                    }
                }
            }
            processed
        }
    }

    /// Seed-trait twins of the storm nodes, with the accounting style the
    /// seed's protocol nodes used: string-keyed incs per packet.
    pub struct Storm {
        pub remaining: u64,
        pub counters: StrCounters,
    }

    impl Node for Storm {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..super::WINDOW {
                ctx.send(PortId(0), Packet::new(vec![0u8; 64], i));
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx, port: PortId, packet: Packet) {
            self.counters.inc("host.rx_packets");
            self.counters.add("host.rx_bytes", packet.wire_len() as u64);
            if self.remaining > 0 {
                self.remaining -= 1;
                self.counters.inc("host.tx_packets");
                self.counters.add("host.tx_bytes", packet.wire_len() as u64);
                ctx.send(port, packet);
            }
        }
    }

    pub struct Echo {
        pub counters: StrCounters,
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx, port: PortId, packet: Packet) {
            self.counters.inc("host.rx_packets");
            self.counters.add("host.rx_bytes", packet.wire_len() as u64);
            self.counters.inc("host.tx_packets");
            self.counters.add("host.tx_bytes", packet.wire_len() as u64);
            ctx.send(port, packet);
        }
    }
}

/// The same storm through the seed-engine transcription. Returns events
/// processed (must equal [`run_interned`]'s count for a fair ratio).
fn run_string_keyed() -> u64 {
    let mut sim = seed::SeedSim::new();
    let storm =
        sim.add_node(Box::new(seed::Storm { remaining: BOUNCES, counters: Default::default() }));
    let echo = sim.add_node(Box::new(seed::Echo { counters: Default::default() }));
    sim.connect(storm, echo, storm_link());
    sim.run_until_idle()
}

/// The event-queue workload a sharded 100k-host fabric generates: a deep
/// standing queue (one in-flight event per simulated flow) where each pop
/// schedules a successor at one of the fabric's natural delay scales —
/// host-link RTTs, trunk RTTs, pacing timers — plus a rare far-future
/// scenario deadline that lands beyond the calendar horizon. Delays are
/// chosen by a cycling deterministic pattern, not an RNG, so both queues
/// replay the identical schedule.
const QUEUE_OPS: u64 = 100_000;
const QUEUE_DEPTH: u64 = 8_192;
const FAR_EVERY: u64 = 512;

/// 600 ns / 1.2 µs host RTT traffic, 24 µs trunk hops, 100 µs pacing.
const DELAYS: [u64; 8] = [600, 1_200, 1_200, 2_400, 24_000, 24_000, 100_000, 1_200];

fn queue_delay(processed: u64) -> u64 {
    if processed.is_multiple_of(FAR_EVERY) {
        50_000_000
    } else {
        DELAYS[(processed % DELAYS.len() as u64) as usize]
    }
}

fn queue_storm_calendar() -> u64 {
    use rdv_netsim::queue::{CalendarQueue, EventKey};
    // The engine's fallback geometry (no links to derive one from): 4 µs
    // buckets, 512-slot ring. With 600 ns delays nearly every push lands
    // in the bucket being drained, so this times the late-heap path.
    let mut q: CalendarQueue<u64> = CalendarQueue::new(1 << 12, 512);
    for i in 0..QUEUE_DEPTH {
        q.push(EventKey { at: queue_delay(i), src: 1, seq: i }, i);
    }
    let mut processed = 0u64;
    while processed < QUEUE_OPS {
        let (key, _) = q.pop().expect("storm never drains");
        processed += 1;
        let seq = QUEUE_DEPTH + processed;
        q.push(EventKey { at: key.at + queue_delay(processed), src: 1, seq }, seq);
    }
    processed
}

fn queue_storm_heap() -> u64 {
    use rdv_netsim::queue::EventKey;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut q: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
    for i in 0..QUEUE_DEPTH {
        q.push(Reverse((EventKey { at: queue_delay(i), src: 1, seq: i }, i)));
    }
    let mut processed = 0u64;
    while processed < QUEUE_OPS {
        let Reverse((key, _)) = q.pop().expect("storm never drains");
        processed += 1;
        let seq = QUEUE_DEPTH + processed;
        q.push(Reverse((EventKey { at: key.at + queue_delay(processed), src: 1, seq }, seq)));
    }
    processed
}

/// `rack_storm`'s shape: every flow's event lands on the same instant as
/// every other flow's, one 500 ns hop after the last, so each instant is a
/// wave of `STORM_FLOWS` simultaneous events. Payloads are the engine's
/// 56-byte event size.
const STORM_FLOWS: u64 = 100_000;
const STORM_WAVES: u64 = 5;
const STORM_HOP_NS: u64 = 500;
type Payload = [u64; 7];

/// The storm through the calendar queue, at the geometry the engine
/// derives for 500 ns links (256 ns buckets, 8,192-slot ring).
fn queue_storm_same_instant() -> u64 {
    use rdv_netsim::queue::{CalendarQueue, EventKey};
    let mut q: CalendarQueue<Payload> = CalendarQueue::new(256, 8192);
    for f in 0..STORM_FLOWS {
        q.push(EventKey { at: STORM_HOP_NS, src: f as u32 + 1, seq: 0 }, [f; 7]);
    }
    let mut processed = 0u64;
    while let Some((key, p)) = q.pop() {
        processed += 1;
        if key.seq + 1 < STORM_WAVES {
            let next = EventKey { at: key.at + STORM_HOP_NS, src: key.src, seq: key.seq + 1 };
            q.push(next, p);
        }
    }
    processed
}

/// The same storm through a `BinaryHeap` of keyed payloads.
fn queue_storm_same_instant_heap() -> u64 {
    use rdv_netsim::queue::EventKey;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    struct Entry(EventKey, Payload);
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.cmp(&other.0)
        }
    }
    let mut q: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
    for f in 0..STORM_FLOWS {
        q.push(Reverse(Entry(EventKey { at: STORM_HOP_NS, src: f as u32 + 1, seq: 0 }, [f; 7])));
    }
    let mut processed = 0u64;
    while let Some(Reverse(Entry(key, p))) = q.pop() {
        processed += 1;
        if key.seq + 1 < STORM_WAVES {
            let next = EventKey { at: key.at + STORM_HOP_NS, src: key.src, seq: key.seq + 1 };
            q.push(Reverse(Entry(next, p)));
        }
    }
    processed
}

fn bench(c: &mut Criterion) {
    let events = run_interned();
    let baseline_events = run_string_keyed();
    assert_eq!(events, baseline_events, "both engines must process the same storm");

    let mut group = c.benchmark_group("engine_hotpath");
    group.sample_size(20);
    group.throughput(Throughput::Elements(events));
    group.bench_function("packet_storm_interned", |b| b.iter(|| black_box(run_interned())));
    group.bench_function("packet_storm_string_keyed_baseline", |b| {
        b.iter(|| black_box(run_string_keyed()))
    });

    assert_eq!(queue_storm_calendar(), queue_storm_heap(), "same op count on both queues");
    group.throughput(Throughput::Elements(QUEUE_OPS));
    group.bench_function("queue_storm_calendar", |b| b.iter(|| black_box(queue_storm_calendar())));
    group.bench_function("queue_storm_heap_baseline", |b| b.iter(|| black_box(queue_storm_heap())));

    let storm_ops = queue_storm_same_instant();
    assert_eq!(storm_ops, STORM_FLOWS * STORM_WAVES);
    assert_eq!(storm_ops, queue_storm_same_instant_heap(), "same op count on both queues");
    group.throughput(Throughput::Elements(storm_ops));
    group.bench_function("queue_storm_same_instant", |b| {
        b.iter(|| black_box(queue_storm_same_instant()))
    });
    group.bench_function("queue_storm_same_instant_heap_baseline", |b| {
        b.iter(|| black_box(queue_storm_same_instant_heap()))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
