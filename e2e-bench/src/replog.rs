//! `replog_steady` and `blip_gossip`: the `rdv-load` replicated-log open
//! loop, assembled from the crates' public parts.
//!
//! `LoadRun::execute` generates its inputs, builds its fabric and runs it
//! in one call, so neither set-up time nor per-node handler time can be
//! taken from outside it. [`prepare`] repeats its steps one for one —
//! `ArrivalSchedule::generate`, `replog::batches`, `HostNode`s,
//! `plan_gossip_peers`, the star fabric, `FaultPlan`,
//! `Sim::schedule_batch` — and [`check_against_loadrun`] proves each
//! benchmark run's completions, failures, clock and counters equal the
//! library harness's.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::scenarios::{build_star_fabric_sharded, host_link_rack};
use rdv_discovery::hier::plan_gossip_peers;
use rdv_discovery::{DiscoveryMode, HostConfig, HostNode};
use rdv_gossip::GossipConfig;
use rdv_load::replog::batches;
use rdv_load::{
    nearest_rank, ArrivalSchedule, Batch, Blip, LoadCurve, LoadFabricSpec, LoadRun, OpenLoopSpec,
    ReplogSpec,
};
use rdv_netsim::trace::critical::{CriticalPath, CATEGORIES};
use rdv_netsim::trace::SampleSpec;
use rdv_netsim::{Counters, FaultPlan, LinkSpec, Node, NodeId, Sim, SimTime};
use rdv_objspace::{ObjId, ObjectKind};
use rdv_p4rt::pipeline::SwitchNode;

use crate::outcome::{busy_of, node, Outcome, Prepared};
use crate::shim::{build_star_timed, Timed};

/// Gossip region size `LoadRun` peers the background plane in.
const GOSSIP_REGION: usize = 64;

/// One replicated-log workload: the three specs `LoadRun` takes.
#[derive(Clone)]
pub struct Replog {
    /// Fabric shape and service parameters.
    pub fabric: LoadFabricSpec,
    /// Open-loop arrival process.
    pub open: OpenLoopSpec,
    /// Batching at the writers.
    pub replog: ReplogSpec,
    /// Mid-run fault window, if any.
    pub blip: Option<Blip>,
    /// Share of `load.batch` chains the critical-path tracer keeps, ‰.
    pub trace_permille: u16,
}

/// The fabric; the seed draws the holders' service time from 1.9–2.1 µs.
/// With fixed link and service times every healthy batch takes the same
/// sim time, so without this draw a latency quantile would read the same
/// on every seed.
fn fabric(
    seed: u64,
    holders: usize,
    bystanders: usize,
    gossip_period: Option<SimTime>,
) -> LoadFabricSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E);
    LoadFabricSpec {
        holders,
        shards: 1,
        link_loss_permille: 0,
        serve_delay: SimTime::from_nanos(rng.gen_range(1900..=2100)),
        access_timeout: SimTime::from_micros(200),
        max_access_retries: 8,
        slo_interval: SimTime::from_micros(50),
        shard_audit: false,
        bystanders,
        gossip_period,
        flight_recorder: false,
    }
}

fn open(heads: u32, duration: SimTime) -> OpenLoopSpec {
    OpenLoopSpec {
        clients: 1_000_000,
        objects: heads,
        zipf_skew_permille: 1000,
        base_rate_per_s: 1_000_000,
        start: SimTime::from_micros(10),
        duration,
        curve: LoadCurve::flat(),
        churn: None,
    }
}

/// F6's healthy replicated log, grown to 64 heads on 8 holders and
/// ~10^5 batches; no faults, no gossip, one shard (the star fabric runs
/// several times slower sharded, see the README).
pub fn steady(seed: u64) -> Replog {
    let replog = ReplogSpec {
        writers: 4,
        heads: 64,
        entry_bytes: 64,
        batch_window: SimTime::from_micros(20),
    };
    Replog {
        fabric: fabric(seed, 8, 0, None),
        open: open(replog.heads, SimTime::from_millis(200)),
        replog,
        blip: None,
        trace_permille: 20,
    }
}

/// F8's shape: F6's log and partition+crash blip, with background
/// anti-entropy across a few hundred bystander hosts.
pub fn blip_gossip(seed: u64) -> Replog {
    let replog = ReplogSpec {
        writers: 4,
        heads: 8,
        entry_bytes: 64,
        batch_window: SimTime::from_micros(20),
    };
    let hosts = 256;
    let holders = 3;
    Replog {
        fabric: fabric(
            seed,
            holders,
            hosts - holders - replog.writers as usize,
            Some(SimTime::from_micros(40)),
        ),
        open: open(replog.heads, SimTime::from_millis(2)),
        replog,
        blip: Some(Blip {
            at: SimTime::from_micros(300),
            dur: SimTime::from_micros(200),
            partition_holder: Some(0),
            crash_holder: Some(1),
        }),
        trace_permille: 1000,
    }
}

/// Bytes the materialized schedule holds: every arrival and every batch.
pub fn schedule_bytes(schedule: &ArrivalSchedule, plan: &[Batch]) -> u64 {
    (std::mem::size_of_val(schedule.arrivals.as_slice()) + std::mem::size_of_val(plan)) as u64
}

/// `(per-layer metric, switch counter)`.
pub const P4RT_COUNTERS: [(&str, &str); 4] =
    [("p4rt.hit", "hit"), ("p4rt.flood", "flood"), ("p4rt.punt", "punt"), ("p4rt.drop", "drop")];

/// Set the workload up exactly as `LoadRun::execute` does; with `traced`
/// every node (switch included) runs inside the timing shim.
pub fn prepare(w: &Replog, seed: u64, traced: bool) -> Prepared {
    let (fabric, replog) = (w.fabric, w.replog);
    let t = Instant::now();
    let schedule = ArrivalSchedule::generate(&w.open, seed);
    let plan_batches = batches(&schedule, &replog);
    let generate_ns = t.elapsed().as_nanos() as u64;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD);
    let writers = replog.writers as usize;
    let host_cfg = HostConfig {
        mode: DiscoveryMode::Controller,
        read_len: (replog.entry_bytes as u64).max(1),
        serve_delay: fabric.serve_delay,
        access_timeout: fabric.access_timeout,
        max_access_retries: fabric.max_access_retries,
        ..HostConfig::default()
    };
    let link = host_link_rack().with_loss(fabric.link_loss_permille);
    let mut writer_nodes: Vec<HostNode> = (0..writers)
        .map(|w| {
            let mut n = HostNode::new(format!("w{w}"), ObjId(0x10AD_0000 + w as u128), host_cfg);
            n.load_spans = true;
            n
        })
        .collect();
    let mut holder_nodes: Vec<HostNode> = (0..fabric.holders)
        .map(|h| HostNode::new(format!("lh{h}"), ObjId(0x10AD_8000 + h as u128), host_cfg))
        .collect();
    let mut bystander_nodes: Vec<HostNode> = (0..fabric.bystanders)
        .map(|b| HostNode::new(format!("x{b}"), ObjId(0x10AD_A000 + b as u128), host_cfg))
        .collect();
    let mut obj_routes = Vec::new();
    let mut head_objs = Vec::with_capacity(replog.heads as usize);
    let payload = (replog.entry_bytes as u64).max(64) * 2;
    for head in 0..replog.heads as usize {
        let holder_idx = head % fabric.holders;
        let store = &mut holder_nodes[holder_idx].store;
        let obj = store.create(&mut rng, ObjectKind::Data);
        let off = store.get_mut(obj).unwrap().alloc(payload).unwrap();
        store.get_mut(obj).unwrap().write_u64(off, head as u64).unwrap();
        obj_routes.push((obj, writers + holder_idx));
        head_objs.push(obj);
    }
    let mut timers: Vec<(SimTime, usize, u64)> = Vec::with_capacity(plan_batches.len());
    let mut batch_keys: Vec<Vec<((u64, u128), u32)>> = vec![Vec::new(); writers];
    for b in &plan_batches {
        let wi = b.writer as usize;
        let obj = head_objs[b.head as usize];
        let tag = writer_nodes[wi].plan.len() as u64;
        writer_nodes[wi].plan.push(obj);
        timers.push((b.at, wi, tag));
        batch_keys[wi].push(((b.at.as_nanos(), obj.0), b.entries));
    }
    for keys in &mut batch_keys {
        keys.sort_unstable_by_key(|&(k, _)| k);
    }
    if let Some(period) = fabric.gossip_period {
        let cfg = GossipConfig { period, ..GossipConfig::default() };
        let mut all: Vec<&mut HostNode> = writer_nodes
            .iter_mut()
            .chain(holder_nodes.iter_mut())
            .chain(bystander_nodes.iter_mut())
            .collect();
        let inboxes: Vec<ObjId> = all.iter().map(|n| n.inbox()).collect();
        let regions: Vec<Vec<ObjId>> = inboxes.chunks(GOSSIP_REGION).map(|c| c.to_vec()).collect();
        for (i, plan) in plan_gossip_peers(&regions).iter().enumerate() {
            all[i].enable_gossip(i as u64 + 1, cfg);
            for &(peer, relay) in &plan.peers {
                all[i].add_gossip_peer(peer, relay);
            }
        }
    }
    let boxed = |n: HostNode| -> Box<dyn Node> {
        if traced {
            Box::new(Timed::new(n))
        } else {
            Box::new(n)
        }
    };
    let mut nodes: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = Vec::new();
    let hosts = writer_nodes.into_iter().chain(holder_nodes).chain(bystander_nodes);
    for n in hosts {
        let inbox = n.inbox();
        nodes.push((boxed(n), inbox, link));
    }

    let t = Instant::now();
    let (mut sim, ids) = if traced {
        build_star_timed(seed, fabric.shards, nodes, &obj_routes)
    } else {
        build_star_fabric_sharded(seed, fabric.shards, nodes, &obj_routes)
    };
    let build_ns = t.elapsed().as_nanos() as u64;
    let switch = NodeId(ids.len());
    if let Some(blip) = &w.blip {
        let until = SimTime::from_nanos(blip.at.as_nanos() + blip.dur.as_nanos());
        let mut plan = FaultPlan::new();
        if let Some(p) = blip.partition_holder {
            plan = plan.partition(blip.at, until, &[switch], &[ids[writers + p]]);
        }
        if let Some(c) = blip.crash_holder {
            plan = plan.crash(blip.at, ids[writers + c]).restart(until, ids[writers + c]);
        }
        sim.install_fault_plan(&plan);
    }
    sim.schedule_batch(timers.iter().map(|&(at, wi, tag)| (at, ids[wi], tag)));
    let until = fabric.gossip_period.map(|_| {
        let last = timers.iter().map(|&(at, _, _)| at.as_nanos()).max().unwrap_or(0);
        let heal = w.blip.map(|b| b.at.as_nanos() + b.dur.as_nanos()).unwrap_or(0);
        let patience =
            fabric.access_timeout.as_nanos() * (u64::from(fabric.max_access_retries) + 2);
        SimTime::from_nanos(last.max(heal) + patience)
    });

    let arrivals = schedule.arrivals.len() as u64;
    let schedule_mb = schedule_bytes(&schedule, &plan_batches) as f64 / (1024.0 * 1024.0);
    let access_timeout_ns = fabric.access_timeout.as_nanos();
    // `LoadRun` holds its materialized inputs until the run ends, and
    // `peak_rss_mb` should see them, so this harness does too.
    let inputs = (schedule, plan_batches, timers);
    let collect = move |sim: &Sim| {
        drop(inputs);
        collect(sim, &ids, &batch_keys, arrivals, schedule_mb, access_timeout_ns)
    };
    Prepared { sim, until, generate_ns, build_ns, collect: Box::new(collect) }
}

/// `LoadRun`'s tally: every host's counters, the engine's, and `load.*`.
fn tally(sim: &Sim, ids: &[NodeId], entries: u64, arrivals: u64, out: &Outcome) -> Counters {
    let mut counters = Counters::new();
    for &id in ids {
        counters.merge(&node::<HostNode>(sim, id).counters);
    }
    counters.merge(&sim.counters);
    counters.add("load.arrivals", arrivals);
    counters.add("load.batches", out.attempted);
    counters.add("load.entries", entries);
    counters.add("load.completions", out.latencies_ns.len() as u64);
    counters.add("load.failures", out.typed_failed);
    // The benchmark's open loops run without churn.
    counters.add("load.churn_joins", 0);
    counters.add("load.churn_leaves", 0);
    counters
}

fn collect(
    sim: &Sim,
    ids: &[NodeId],
    batch_keys: &[Vec<((u64, u128), u32)>],
    arrivals: u64,
    schedule_mb: f64,
    access_timeout_ns: u64,
) -> Outcome {
    let mut out = Outcome::default();
    let mut completions: Vec<(u64, u64, u64)> = Vec::new();
    let mut entries = 0u64;
    let mut first_try = 0u64;
    for (w, keys) in batch_keys.iter().enumerate() {
        let host = node::<HostNode>(sim, ids[w]);
        out.attempted += host.plan.len() as u64;
        out.typed_failed += host.failed.len() as u64;
        for r in &host.records {
            let key = (r.issued.as_nanos(), r.target.0);
            match keys.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => entries += u64::from(keys[i].1),
                Err(_) => out.errors.push(format!("writer {w}: record for no batch {key:?}")),
            }
            let lat = r.latency().as_nanos();
            completions.push((r.completed.as_nanos(), r.issued.as_nanos(), lat));
            // Completed before the first watchdog window ran out and
            // without a NACK: no re-send was needed.
            if lat < access_timeout_ns && r.nacks == 0 {
                first_try += 1;
            }
        }
        if host.outstanding() != 0 {
            out.errors.push(format!("writer {w}: {} accesses wedged", host.outstanding()));
        }
    }
    completions.sort_unstable();
    out.latencies_ns = completions.iter().map(|&(_, _, lat)| lat).collect();
    out.read_engine(sim);

    let counters = tally(sim, ids, entries, arrivals, &out);
    let c = &mut out.counts;
    c.insert("load.arrivals", arrivals as f64);
    c.insert("load.batches", out.attempted as f64);
    c.insert("load.schedule_mb", schedule_mb);
    for (metric, counter) in [
        ("discovery.access_timeouts", "access_timeouts"),
        ("discovery.accesses_abandoned", "accesses_abandoned"),
        ("discovery.nacks_received", "nacks_received"),
        ("gossip.rounds", "gossip.rounds"),
        ("gossip.digests_sent", "gossip.digests_sent"),
        ("gossip.deltas_sent", "gossip.deltas_sent"),
        ("gossip.entries_applied", "gossip.entries_applied"),
        ("gossip.repair_hits", "gossip.repair_hits"),
    ] {
        c.insert(metric, counters.get(counter) as f64);
    }
    c.insert("discovery.first_try_ratio", first_try as f64 / out.attempted.max(1) as f64);
    let switch = NodeId(ids.len());
    let sw = node::<SwitchNode>(sim, switch);
    for (metric, counter) in P4RT_COUNTERS {
        c.insert(metric, sw.counters.get(counter) as f64);
    }
    out.tally = counters.iter().map(|(name, v)| (name.to_string(), v)).collect();

    for &id in ids {
        if let Some([path, gossip]) = busy_of::<HostNode>(sim, id) {
            out.charge("discovery", &path);
            out.charge("gossip", &gossip);
        }
    }
    if let Some([sw, _]) = busy_of::<SwitchNode>(sim, switch) {
        out.charge("p4rt", &sw);
    }
    out
}

/// Compare a benchmark run with `LoadRun::execute` on the same inputs.
pub fn check_against_loadrun(w: &Replog, seed: u64, out: &Outcome) -> Result<(), String> {
    let run = LoadRun::execute(&w.fabric, &w.open, &w.replog, w.blip.as_ref(), seed, false);
    let mut diffs = Vec::new();
    if run.clock_ns != out.clock_ns {
        diffs.push(format!("clock {} vs {}", run.clock_ns, out.clock_ns));
    }
    if run.scheduled_batches as u64 != out.attempted {
        diffs.push(format!("batches {} vs {}", run.scheduled_batches, out.attempted));
    }
    if run.failed as u64 != out.typed_failed {
        diffs.push(format!("failed {} vs {}", run.failed, out.typed_failed));
    }
    let lats: Vec<u64> = run.completions.iter().map(|&(_, lat)| lat).collect();
    if lats != out.latencies_ns {
        diffs.push("completions differ".to_string());
    }
    let theirs: Vec<(String, u64)> =
        run.counters.iter().map(|(name, v)| (name.to_string(), v)).collect();
    if theirs != out.tally {
        diffs.push("counter tallies differ".to_string());
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("benchmark harness diverged from LoadRun::execute: {}", diffs.join("; ")))
    }
}

/// Critical-path shares of the p99 cohort from `LoadRun`'s sampled tracer:
/// traced batches at or past the p99 latency of all completions, their
/// path time split into host/queue/link/timer-wait.
pub fn critical_shares(w: &Replog, seed: u64, out: &Outcome) -> BTreeMap<&'static str, f64> {
    let spec = SampleSpec {
        seed: seed ^ 0xE2E,
        default_permille: 0,
        classes: vec![("load.batch", w.trace_permille)],
    };
    let run = LoadRun::execute_traced(&w.fabric, &w.open, &w.replog, w.blip.as_ref(), seed, &spec);
    let tracer = run.tracer.as_ref().expect("traced run returns its ring");
    let mut lats = out.latencies_ns.clone();
    lats.sort_unstable();
    let p99 = nearest_rank(&lats, 990);
    let mut by_cat = [0u64; 4];
    for &(_, lat, end) in &run.traced_batches {
        if lat >= p99 {
            let path = CriticalPath::from_span(tracer, end);
            for (i, cat) in CATEGORIES.iter().enumerate() {
                by_cat[i] += path.category_ns(cat);
            }
        }
    }
    let total = by_cat.iter().sum::<u64>().max(1) as f64;
    let names = [
        "critical.p99.host_share",
        "critical.p99.queue_share",
        "critical.p99.link_share",
        "critical.p99.timer_wait_share",
    ];
    names.iter().zip(by_cat).map(|(&n, ns)| (n, ns as f64 / total)).collect()
}
