#!/usr/bin/env python3
"""Record or check the throughput baselines for the engine benches.

The vendored criterion stub prints one stable line per benchmark:

    engine_hotpath/packet_storm_interned  time: [lo med hi]  thrpt: 9.17 Melem/s

This script runs every bench in BENCHES, parses those lines (benchmark
names are group-qualified, so entries from different benches never
collide), and either

    --record   writes results/bench_baseline.json (median ns + events/s), or
    (default)  compares the fresh run against the recorded baseline and
               *warns* when events/s dropped by more than 25%. Bench boxes
               in CI are noisy; the warning is a nudge to look, not a gate.

The exception is the groups in FAIL_PCT: the engine hot path is the one
place a silent slowdown compounds into every figure and soak, and gossip
anti-entropy runs on every host of every gossip-enabled figure (its
membership exchange must stay proportional to what changed, not to the
membership size), so a drop beyond their (much looser) threshold fails
the run outright -- a 40% cliff is a lost optimisation, not box noise.

Exit code is 0 in check mode unless a bench itself failed to run or a
FAIL_PCT group regressed past its threshold.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "results" / "bench_baseline.json"
BENCHES = ["engine_hotpath", "engine_shards", "load_gen", "gossip_sync", "trace_sampled"]
REGRESSION_PCT = 25
# Per-group hard gates, keyed by the group prefix (the part of the
# benchmark name before "/"). Groups not listed here stay warn-only.
FAIL_PCT = {"engine_hotpath": 40, "gossip_sync": 40}

LINE = re.compile(
    r"^(?P<name>\S+)\s+time: \[(?P<lo>[\d.]+) (?P<lou>\S+) "
    r"(?P<med>[\d.]+) (?P<medu>\S+) (?P<hi>[\d.]+) (?P<hiu>\S+)\]"
    r"(?:\s+thrpt: (?P<rate>[\d.]+) (?P<ratepfx>[KMG]?)elem/s)?"
)
NS_PER = {"ns": 1.0, "µs": 1e3, "us": 1e3, "ms": 1e6, "s": 1e9}
RATE_MUL = {"": 1.0, "K": 1e3, "M": 1e6, "G": 1e9}


def bench_cmd(bench: str) -> list[str]:
    return ["cargo", "bench", "-p", "rdv-bench", "--bench", bench]


def run_bench(bench: str) -> list[dict]:
    cmd = bench_cmd(bench)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed with exit code {proc.returncode}")
    results = []
    for line in proc.stdout.splitlines():
        m = LINE.match(line.strip())
        if not m or m["rate"] is None:
            continue
        results.append(
            {
                "name": m["name"],
                "median_ns": float(m["med"]) * NS_PER[m["medu"]],
                "events_per_s": float(m["rate"]) * RATE_MUL[m["ratepfx"]],
            }
        )
    if not results:
        sys.exit(f"no benchmark lines parsed from {bench} output")
    return results


def run_all() -> list[dict]:
    results: list[dict] = []
    for bench in BENCHES:
        results.extend(run_bench(bench))
    names = [r["name"] for r in results]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        sys.exit(f"duplicate benchmark names across benches: {sorted(dupes)}")
    return results


def record(results: list[dict]) -> None:
    BASELINE.parent.mkdir(exist_ok=True)
    doc = {
        "benches": BENCHES,
        "command": " && ".join(" ".join(bench_cmd(b)) for b in BENCHES),
        "note": f"warn-only baseline; CI flags >{REGRESSION_PCT}% events/s regressions",
        "results": results,
    }
    BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(results)} benchmark(s) to {BASELINE.relative_to(ROOT)}")


def check(results: list[dict]) -> None:
    if not BASELINE.exists():
        print(f"::warning::no {BASELINE.relative_to(ROOT)}; run with --record first")
        return
    baseline = {r["name"]: r for r in json.loads(BASELINE.read_text())["results"]}
    fresh = {r["name"]: r for r in results}
    for name in sorted(set(fresh) - set(baseline)):
        print(f"::warning::benchmark {name} ran but has no baseline entry; re-record")
    failures = []
    for name, base in sorted(baseline.items()):
        if name not in fresh:
            print(f"::warning::benchmark {name} is in the baseline but did not run")
            continue
        was, now = base["events_per_s"], fresh[name]["events_per_s"]
        delta_pct = (now - was) * 100.0 / was
        fail_pct = FAIL_PCT.get(name.split("/", 1)[0])
        verdict = "ok"
        if fail_pct is not None and delta_pct < -fail_pct:
            verdict = f"REGRESSION (gated at {fail_pct}%)"
            failures.append(name)
            print(
                f"::error::{name}: {now / 1e6:.2f} Melem/s is "
                f"{-delta_pct:.0f}% below the recorded {was / 1e6:.2f} Melem/s "
                f"(hard gate: {fail_pct}%)"
            )
        elif delta_pct < -REGRESSION_PCT:
            verdict = "REGRESSION (warn-only)"
            print(
                f"::warning::{name}: {now / 1e6:.2f} Melem/s is "
                f"{-delta_pct:.0f}% below the recorded {was / 1e6:.2f} Melem/s"
            )
        print(f"{name}: {was / 1e6:.2f} -> {now / 1e6:.2f} Melem/s ({delta_pct:+.0f}%) {verdict}")
    if failures:
        sys.exit(f"{len(failures)} gated benchmark group regression(s): {', '.join(failures)}")


def main() -> None:
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode not in ("", "--record"):
        sys.exit(__doc__)
    results = run_all()
    if mode == "--record":
        record(results)
    else:
        check(results)


if __name__ == "__main__":
    main()
