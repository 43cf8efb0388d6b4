//! End-to-end benchmark of the rendezvous fabric.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <replog_steady|blip_gossip|rack_storm|invoke_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` is that workload's alone.
//! The run first executes the workload once untimed (lazy set-up such as
//! counter interning and allocator growth finishes there) and checks it
//! against its reference; then it repeats set-up + simulation for
//! `--seconds`, checking every repeat's fingerprint against the first, and
//! reports medians. `--trace 1` adds a traced repeat (every node inside the
//! timing shim) after each plain one and reports the per-layer metrics
//! instead of the end-to-end ones. The last stdout line is one JSON object;
//! the lines before it are the same numbers for people, with op sample
//! counts. Any failed output check makes the exit code nonzero.
//!
//! Two clocks: **host** metrics are wall-clock time and memory of this
//! process; **sim** metrics are read off the simulated fabric and repeat
//! exactly for a seed. See README.md for the glossary.

// The root clippy.toml bans `Instant::now` to keep wall time out of the
// simulation (determinism rule D2); measuring host wall time is this
// benchmark's job, and it never feeds a reading back into a run.
#![allow(clippy::disallowed_methods)]

mod invoke;
mod outcome;
mod replog;
mod shim;
mod storm;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use outcome::{median, peak_rss_mb, Outcome, Prepared};
use rdv_load::nearest_rank;

/// The benchmark's workloads.
enum Workload {
    Replog(replog::Replog),
    Storm(storm::Storm),
    Invoke(invoke::InvokeMix),
}

const WORKLOADS: [&str; 4] = ["replog_steady", "blip_gossip", "rack_storm", "invoke_mix"];

/// Repeats a run makes at least, whatever `--seconds` says, so medians
/// have something to stand on.
const MIN_REPEATS: usize = 3;

/// Ops a workload must complete, so ≥ 10 samples are ranked past its p99.
const MIN_OPS: usize = 1000;

impl Workload {
    fn named(name: &str, seed: u64) -> Option<Workload> {
        Some(match name {
            "replog_steady" => Workload::Replog(replog::steady(seed)),
            "blip_gossip" => Workload::Replog(replog::blip_gossip(seed)),
            "rack_storm" => Workload::Storm(storm::rack_storm(seed)),
            "invoke_mix" => Workload::Invoke(invoke::invoke_mix()),
            _ => return None,
        })
    }

    fn prepare(&self, seed: u64, traced: bool) -> Prepared {
        match self {
            Workload::Replog(w) => replog::prepare(w, seed, traced),
            Workload::Storm(s) => storm::prepare(s, seed, 0, traced),
            Workload::Invoke(m) => invoke::prepare(m, seed, traced),
        }
    }

    /// The workload's reference check on the first run: the library
    /// harness for the replicated log, the two-shard run for the storm
    /// (whose sharded-engine counts it copies into `first`). Says what it
    /// compared on success.
    fn check_reference(&self, seed: u64, first: &mut Outcome) -> Result<&'static str, String> {
        match self {
            Workload::Replog(w) => replog::check_against_loadrun(w, seed, first).map(|()| {
                "clock, batches, failures, completions and counters equal LoadRun::execute's"
            }),
            Workload::Storm(s) => {
                let mut p = storm::prepare(s, seed, s.check_shards, false);
                p.simulate();
                let sharded = p.finish();
                if (sharded.events, sharded.clock_ns) != (first.events, first.clock_ns)
                    || sharded.fingerprint() != first.fingerprint()
                {
                    return Err(format!(
                        "rack_storm at {} shards gave (events, clock) = ({}, {}), {} shard(s) ({}, {})",
                        s.check_shards,
                        sharded.events,
                        sharded.clock_ns,
                        s.shards,
                        first.events,
                        first.clock_ns
                    ));
                }
                first.exec = sharded.exec;
                Ok("(events, clock) and fingerprint at 2 shards equal the 1-shard run's")
            }
            Workload::Invoke(_) => Ok("none beyond the per-result width check"),
        }
    }
}

/// One repeat's host-clock measurements.
struct Timing {
    setup_s: f64,
    run_s: f64,
    generate_s: f64,
    build_s: f64,
}

/// Set up, simulate and collect once, timing set-up and simulation apart.
fn run_once(w: &Workload, seed: u64, traced: bool) -> (Outcome, Timing) {
    let t = Instant::now();
    let mut p = w.prepare(seed, traced);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    p.simulate();
    let run_s = t.elapsed().as_secs_f64();
    let (generate_s, build_s) = (p.generate_ns as f64 / 1e9, p.build_ns as f64 / 1e9);
    (p.finish(), Timing { setup_s, run_s, generate_s, build_s })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    clock: &'static str,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::named(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {:?}; known: {}", args.workload, WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let seed = args.seed;
    let mut errors: Vec<String> = Vec::new();

    // Untimed first run: warm-up, reference check, and the fingerprint
    // every later repeat must reproduce.
    let (mut first, _) = run_once(&w, seed, false);
    // The workload's own footprint: later repeats and reference runs only
    // add allocator churn to the high-water mark.
    let peak_rss_mb = peak_rss_mb();
    let print = first.fingerprint();
    errors.extend(first.errors.iter().cloned());
    match w.check_reference(seed, &mut first) {
        Ok(what) => println!("reference check passed: {what}"),
        Err(e) => errors.push(e),
    }
    if first.latencies_ns.len() < MIN_OPS {
        errors.push(format!("only {} ops completed (< {MIN_OPS})", first.latencies_ns.len()));
    }
    let critical = match (&w, args.trace) {
        (Workload::Replog(r), true) => replog::critical_shares(r, seed, &first),
        _ => BTreeMap::new(),
    };

    let mut plain: Vec<Timing> = Vec::new();
    let mut traced: Vec<(Timing, Outcome)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while plain.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < args.seconds {
        let (out, timing) = run_once(&w, seed, false);
        if out.fingerprint() != print {
            errors.push(format!("repeat {} diverged from the first run", plain.len() + 1));
        }
        attempted += out.attempted;
        failed += out.failed();
        plain.push(timing);
        if args.trace {
            let (out, timing) = run_once(&w, seed, true);
            if out.fingerprint() != print {
                errors.push(format!("traced repeat {} diverged from the plain run", traced.len()));
            }
            traced.push((timing, out));
        }
    }

    let med = |f: &dyn Fn(&Timing) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let run_s = med(&|t| t.run_s);
    let mut lats = first.latencies_ns.clone();
    lats.sort_unstable();
    let completed = lats.len() as u64;
    let p99_ns = nearest_rank(&lats, 990);
    // Samples ranked past the p99's nearest rank, and how many of them are
    // strictly slower (sim latencies tie often on a fabric with fixed
    // link and service times).
    let past_p99 = lats.len() - (990 * lats.len()).div_ceil(1000);
    let slower_p99 = lats.iter().filter(|&&l| l > p99_ns).count();

    let metrics: Vec<Metric> = if !args.trace {
        vec![
            Metric { name: "setup_s", value: med(&|t| t.setup_s), unit: "s", clock: "host" },
            Metric { name: "run_s", value: run_s, unit: "s", clock: "host" },
            Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MB", clock: "host" },
            Metric {
                name: "sim_op_p50_us",
                value: nearest_rank(&lats, 500) as f64 / 1e3,
                unit: "us",
                clock: "sim",
            },
            Metric { name: "sim_op_p99_us", value: p99_ns as f64 / 1e3, unit: "us", clock: "sim" },
            Metric {
                name: "ok_ratio",
                value: completed as f64 / first.attempted.max(1) as f64,
                unit: "ratio",
                clock: "-",
            },
            Metric {
                name: "packets_per_op",
                value: first.packets_delivered as f64 / completed.max(1) as f64,
                unit: "packets/op",
                clock: "sim",
            },
        ]
    } else {
        per_layer(&first, &plain, &traced, &critical)
    };

    println!(
        "workload {} seed {seed}: {} repeats in {:.1} s; ops attempted {} completed {} \
         typed-failed {} unresolved {} (fail_ratio {}); op latency samples {completed}, \
         {past_p99} ranked past p99 ({slower_p99} strictly slower)",
        args.workload,
        plain.len(),
        start.elapsed().as_secs_f64(),
        first.attempted,
        completed,
        first.typed_failed,
        first.unresolved(),
        first.failed() as f64 / first.attempted.max(1) as f64,
    );
    let samples: Vec<String> = plain.iter().map(|t| format!("{:.4}", t.run_s)).collect();
    println!("  run_s per repeat: {}", samples.join(" "));
    if args.trace {
        let get = |n: &str| metrics.iter().find(|m| m.name == n).map_or(0.0, |m| m.value);
        let busy: f64 = ["p4rt", "discovery", "gossip", "core", "storm"]
            .iter()
            .map(|l| get(&format!("{l}.busy_s")))
            .sum();
        println!(
            "  accounting: layer busy {busy:.4} s + netsim.self_s {:.4} s = {:.4} s against \
             trace.run_s {:.4} s",
            get("netsim.self_s"),
            busy + get("netsim.self_s"),
            get("trace.run_s"),
        );
    }
    for m in &metrics {
        println!("  {:<34} {:>16} {:<10} [{} clock]", m.name, m.value, m.unit, m.clock);
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload does
/// not run read 0.
fn per_layer(
    first: &Outcome,
    plain: &[Timing],
    traced: &[(Timing, Outcome)],
    critical: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let med_plain = |f: &dyn Fn(&Timing) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let med_traced =
        |f: &dyn Fn(&(Timing, Outcome)) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let busy_s =
        |layer: &str| med_traced(&|(_, o)| o.busy.get(layer).map_or(0.0, |b| b.ns as f64 / 1e9));
    let calls = |layer: &str, f: fn(&shim::Busy) -> u64| {
        traced[0].1.busy.get(layer).map_or(0.0, |b| f(b) as f64)
    };
    let count = |name: &str| first.counts.get(name).copied().unwrap_or(0.0);
    let exec = |name: &str| first.exec.get(name).copied().unwrap_or(0.0);
    let run_s = med_plain(&|t| t.run_s);
    let traced_run_s = med_traced(&|(t, _)| t.run_s);
    // Every timed run is single-threaded, so handler time and engine time
    // share one clock.
    let self_s =
        med_traced(&|(t, o)| t.run_s - o.busy.values().map(|b| b.ns as f64 / 1e9).sum::<f64>());
    let rounds = count("gossip.rounds");
    let gossip_busy = busy_s("gossip");

    let m = |name, value, unit, clock| Metric { name, value, unit, clock };
    let mut out = vec![
        m("load.generate_s", med_plain(&|t| t.generate_s), "s", "host"),
        m("load.arrivals", count("load.arrivals"), "count", "sim"),
        m("load.batches", count("load.batches"), "count", "sim"),
        m("load.schedule_mb", count("load.schedule_mb"), "MB", "host"),
        m("netsim.events", first.events as f64, "count", "sim"),
        m("netsim.events_per_s", first.events as f64 / run_s, "1/s", "host"),
        m("netsim.self_s", self_s, "s", "host"),
        m("netsim.build_s", med_plain(&|t| t.build_s), "s", "host"),
        m("netsim.timers", count("netsim.timers"), "count", "sim"),
        m("netsim.packets_dropped", count("netsim.packets_dropped"), "count", "sim"),
        m("netsim.shard.windows", exec("netsim.shard.windows"), "count", "host"),
        m("netsim.shard.xshard_packets", exec("netsim.shard.xshard_packets"), "count", "host"),
        m("p4rt.busy_s", busy_s("p4rt"), "s", "host"),
        m("p4rt.calls", calls("p4rt", shim::Busy::calls), "count", "sim"),
    ];
    for name in ["p4rt.hit", "p4rt.flood", "p4rt.punt", "p4rt.drop"] {
        out.push(m(name, count(name), "count", "sim"));
    }
    out.extend([
        m("discovery.busy_s", busy_s("discovery"), "s", "host"),
        m("discovery.packet_calls", calls("discovery", |b| b.packet_calls), "count", "sim"),
        m("discovery.timer_calls", calls("discovery", |b| b.timer_calls), "count", "sim"),
    ]);
    for name in
        ["discovery.access_timeouts", "discovery.accesses_abandoned", "discovery.nacks_received"]
    {
        out.push(m(name, count(name), "count", "sim"));
    }
    out.push(m("discovery.first_try_ratio", count("discovery.first_try_ratio"), "ratio", "sim"));
    for name in [
        "gossip.rounds",
        "gossip.digests_sent",
        "gossip.deltas_sent",
        "gossip.entries_applied",
        "gossip.repair_hits",
    ] {
        out.push(m(name, count(name), "count", "sim"));
    }
    out.extend([
        m("gossip.busy_s", gossip_busy, "s", "host"),
        m(
            "gossip.busy_per_round_us",
            if rounds > 0.0 { gossip_busy * 1e6 / rounds } else { 0.0 },
            "us",
            "host",
        ),
        m("memproto.fetch_demand", count("memproto.fetch_demand"), "count", "sim"),
        m("memproto.cache_hit_ratio", count("memproto.cache_hit_ratio"), "ratio", "sim"),
        m("memproto.dir_invalidates_sent", count("memproto.dir_invalidates_sent"), "count", "sim"),
        m("memproto.tx_bytes", count("memproto.tx_bytes"), "bytes", "sim"),
        m("core.busy_s", busy_s("core"), "s", "host"),
        m("core.calls", calls("core", shim::Busy::calls), "count", "sim"),
    ]);
    for name in [
        "core.invokes_executed",
        "core.placement_failures",
        "core.scripts_failed",
        "core.retries",
        "core.exec_errors",
    ] {
        out.push(m(name, count(name), "count", "sim"));
    }
    for name in [
        "critical.p99.queue_share",
        "critical.p99.link_share",
        "critical.p99.host_share",
        "critical.p99.timer_wait_share",
    ] {
        out.push(m(name, critical.get(name).copied().unwrap_or(0.0), "ratio", "sim"));
    }
    out.extend([
        m("storm.busy_s", busy_s("storm"), "s", "host"),
        m("trace.run_s", traced_run_s, "s", "host"),
        m("trace.overhead_s", traced_run_s - run_s, "s", "host"),
    ]);
    out
}
