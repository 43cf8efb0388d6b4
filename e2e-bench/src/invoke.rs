//! `invoke_mix`: invoke-by-reference under open-loop load (the paper's
//! Figure 1 mechanism), over a star of `GasHostNode`s built from
//! `rdv_core`'s public parts.
//!
//! Every host homes a small sparse model and an activation object; every
//! fourth host is a weak edge device (speed 0.1, like the paper's Alice).
//! Script starts come from `rdv-load`'s Poisson generator: the arrival's
//! client picks the invoking host, its Zipf-drawn object picks the data.
//! About 80 % of scripts are `Invoke { executor: None }` of the inference
//! function over `[model_z, activation_z]` — the `PlacementEngine` picks
//! the executor: a strong invoker runs it locally and demand-fetches both
//! objects into its cache, a weak one ships the call to where the data is —
//! and 20 % are coherent `Write`s of a fresh activation vector to a
//! Zipf-drawn activation, whose home invalidates every cached copy. Reads
//! and writes hit the same objects, so a read-path gain that costs
//! invalidations shows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdv_core::code::make_code_object;
use rdv_core::modelobj::model_to_object;
use rdv_core::runtime::GasHostConfig;
use rdv_core::scenarios::{
    activation_object, build_star_fabric_sharded, host_link_rack, infer_code_desc,
    standard_registry, ACT_OFFSET,
};
use rdv_core::{GasHostNode, HostProfile, PlacementEngine, ScriptStep};
use rdv_load::{ArrivalSchedule, LoadCurve, OpenLoopSpec};
use rdv_memproto::cache::CacheState;
use rdv_netsim::{LinkSpec, Node, NodeId, Sim, SimTime};
use rdv_objspace::ObjId;
use rdv_p4rt::pipeline::SwitchNode;
use rdv_wire::sparsemodel::{SparseModel, SparseModelSpec};
use rdv_wire::WireReader;

use crate::outcome::{busy_of, node, Outcome, Prepared};
use crate::replog::{schedule_bytes, P4RT_COUNTERS};
use crate::shim::{build_star_timed, Timed};

/// Workload shape.
#[derive(Debug, Clone, Copy)]
pub struct InvokeMix {
    /// Hosts on the star.
    pub hosts: u32,
    /// Script starts per second (open loop).
    pub rate_per_s: u64,
    /// Arrival window.
    pub duration: SimTime,
    /// Share of scripts that are coherent writes, ‰.
    pub write_permille: u32,
    /// Zipf skew over the models/activations, ‰.
    pub skew_permille: u32,
    /// Every host's model.
    pub model: SparseModelSpec,
}

/// 32 hosts, ~20 k scripts at 2 µs mean gaps, 20 % writes.
pub fn invoke_mix() -> InvokeMix {
    InvokeMix {
        hosts: 32,
        rate_per_s: 500_000,
        duration: SimTime::from_millis(40),
        write_permille: 200,
        skew_permille: 1000,
        model: SparseModelSpec {
            layers: 2,
            rows: 64,
            cols: 64,
            nnz_per_row: 4,
            vocab: 16,
            seed: 0,
        },
    }
}

const CODE: ObjId = ObjId(0xC0DE);

fn inbox(h: u32) -> ObjId {
    ObjId(0x1_0000 + u128::from(h))
}

fn model_obj(h: u32) -> ObjId {
    ObjId(0x2_0000 + u128::from(h))
}

fn act_obj(h: u32) -> ObjId {
    ObjId(0x3_0000 + u128::from(h))
}

/// Set up the star; with `traced` every node runs inside the timing shim.
pub fn prepare(m: &InvokeMix, seed: u64, traced: bool) -> Prepared {
    let hosts = m.hosts;
    let t = Instant::now();
    let open = OpenLoopSpec {
        clients: hosts,
        objects: hosts,
        zipf_skew_permille: m.skew_permille,
        base_rate_per_s: m.rate_per_s,
        start: SimTime::from_micros(10),
        duration: m.duration,
        curve: LoadCurve::flat(),
        churn: None,
    };
    let schedule = ArrivalSchedule::generate(&open, seed);
    let generate_ns = t.elapsed().as_nanos() as u64;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A70);
    let cols = m.model.cols;
    let registry = standard_registry();
    // Host load factors, 1–1.1, continuous: execution times, and with them
    // the latency quantiles, differ a little between seeds.
    let loads: Vec<f64> = (0..hosts).map(|_| 1.0 + rng.gen_range(0..100) as f64 / 1000.0).collect();
    let speed = |h: u32| if h % 4 == 3 { 0.1 } else { 1.0 };
    let mut engine = PlacementEngine::new();
    for h in 0..hosts {
        engine.add_host(HostProfile { inbox: inbox(h), speed: speed(h), load: loads[h as usize] });
    }
    let mut nodes: Vec<GasHostNode> = Vec::with_capacity(hosts as usize);
    let mut obj_routes = vec![(CODE, 0usize)];
    engine.set_object(CODE, inbox(0), 256);
    for h in 0..hosts {
        let cfg = GasHostConfig { load: loads[h as usize], speed: speed(h), ..Default::default() };
        let mut n = GasHostNode::new(format!("g{h}"), inbox(h), cfg);
        n.registry = registry.clone();
        let spec = SparseModelSpec { seed: seed ^ u64::from(h), ..m.model };
        let model = model_to_object(model_obj(h), &SparseModel::generate(&spec)).expect("fits");
        engine.set_object(model_obj(h), inbox(h), model.image_len() as u64);
        n.store.insert(model).expect("fresh id");
        let values: Vec<f32> = (0..cols).map(|_| rng.gen_range(0..1000) as f32 / 1000.0).collect();
        activation_object(&mut n.store, act_obj(h), &values);
        engine.set_object(act_obj(h), inbox(h), cols as u64 * 4 + 64);
        if h == 0 {
            n.store.insert(make_code_object(CODE, infer_code_desc())).expect("fresh id");
        } else {
            // Code objects are tiny and cached everywhere, like program
            // binaries: placement reads the descriptor locally.
            n.cache.insert(make_code_object(CODE, infer_code_desc()), CacheState::Shared);
        }
        obj_routes.push((model_obj(h), h as usize));
        obj_routes.push((act_obj(h), h as usize));
        nodes.push(n);
    }
    for n in &mut nodes {
        n.placement = Some(engine.clone());
    }

    let result_bytes = m.model.rows as u64 * 4 + 16;
    let mut timers = Vec::with_capacity(schedule.arrivals.len());
    for a in &schedule.arrivals {
        let (c, z) = (a.client as usize, a.obj);
        let host = &mut nodes[c];
        let script = if rng.gen_range(0..1000) < m.write_permille {
            let values: Vec<f32> =
                (0..cols).map(|_| rng.gen_range(0..1000) as f32 / 1000.0).collect();
            let data = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            vec![ScriptStep::Write { target: act_obj(z), offset: ACT_OFFSET, data }]
        } else {
            vec![ScriptStep::Invoke {
                executor: None,
                code: CODE,
                args: vec![model_obj(z), act_obj(z)],
                result_bytes,
            }]
        };
        timers.push((a.at, c, host.scripts.len() as u64));
        host.scripts.push(script);
    }

    let link = host_link_rack();
    let boxed: Vec<(Box<dyn Node>, ObjId, LinkSpec)> = nodes
        .into_iter()
        .map(|n| {
            let ib = n.inbox();
            let b: Box<dyn Node> = if traced { Box::new(Timed::new(n)) } else { Box::new(n) };
            (b, ib, link)
        })
        .collect();
    let t = Instant::now();
    let (mut sim, ids) = if traced {
        build_star_timed(seed, 1, boxed, &obj_routes)
    } else {
        build_star_fabric_sharded(seed, 1, boxed, &obj_routes)
    };
    let build_ns = t.elapsed().as_nanos() as u64;
    sim.schedule_batch(timers.iter().map(|&(at, h, tag)| (at, ids[h], tag)));
    let rows = m.model.rows as u64;
    let arrivals = schedule.arrivals.len() as f64;
    let schedule_mb = schedule_bytes(&schedule, &[]) as f64 / (1024.0 * 1024.0);
    let collect = move |sim: &Sim| {
        let mut out = collect(sim, &ids, rows);
        out.counts.insert("load.arrivals", arrivals);
        out.counts.insert("load.schedule_mb", schedule_mb);
        out
    };
    Prepared { sim, until: None, generate_ns, build_ns, collect: Box::new(collect) }
}

/// Whether an inference result decodes to exactly `rows` f32 outputs.
fn result_width_ok(result: &[u8], rows: u64) -> bool {
    let mut r = WireReader::new(result);
    r.get_uvarint().is_ok_and(|n| n == rows) && r.remaining() as u64 == rows * 4
}

/// `(per-layer metric, GasHostNode counters summed into it)`.
const HOST_COUNTERS: [(&str, &[&str]); 8] = [
    ("memproto.fetch_demand", &["fetch.demand"]),
    ("memproto.dir_invalidates_sent", &["dir_invalidates_sent"]),
    ("memproto.tx_bytes", &["tx_bytes"]),
    ("core.invokes_executed", &["invokes_executed"]),
    ("core.placement_failures", &["placement_failures"]),
    ("core.scripts_failed", &["scripts_failed"]),
    ("core.retries", &["retries.fetch", "retries.push", "retries.invoke", "retries.write"]),
    ("core.exec_errors", &["exec_errors"]),
];

fn collect(sim: &Sim, ids: &[NodeId], rows: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut completions: Vec<(u64, u64, u64)> = Vec::new();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut tallies = [0f64; HOST_COUNTERS.len()];
    for (h, &id) in ids.iter().enumerate() {
        let host = node::<GasHostNode>(sim, id);
        out.attempted += host.scripts.len() as u64;
        for r in &host.records {
            if r.failed {
                out.typed_failed += 1;
                continue;
            }
            completions.push((r.completed.as_nanos(), r.started.as_nanos(), r.script as u64));
            let invoke = matches!(host.scripts[r.script].first(), Some(ScriptStep::Invoke { .. }));
            if invoke && !result_width_ok(&r.invoke_result, rows) {
                out.errors.push(format!(
                    "host {h} script {}: result of {} bytes is not {rows} outputs",
                    r.script,
                    r.invoke_result.len()
                ));
            }
        }
        hits += host.cache.hits;
        lookups += host.cache.hits + host.cache.misses;
        for (i, (_, names)) in HOST_COUNTERS.iter().enumerate() {
            tallies[i] += names.iter().map(|n| host.counters.get(n) as f64).sum::<f64>();
        }
        if let Some([b, _]) = busy_of::<GasHostNode>(sim, id) {
            out.charge("core", &b);
        }
    }
    completions.sort_unstable();
    out.latencies_ns = completions.iter().map(|&(done, start, _)| done - start).collect();
    out.read_engine(sim);
    for (i, (metric, _)) in HOST_COUNTERS.iter().enumerate() {
        out.counts.insert(metric, tallies[i]);
    }
    out.counts.insert("memproto.cache_hit_ratio", hits as f64 / lookups.max(1) as f64);
    let switch = NodeId(ids.len());
    let sw = node::<SwitchNode>(sim, switch);
    for (metric, counter) in P4RT_COUNTERS {
        out.counts.insert(metric, sw.counters.get(counter) as f64);
    }
    if let Some([b, _]) = busy_of::<SwitchNode>(sim, switch) {
        out.charge("p4rt", &b);
    }
    out
}
