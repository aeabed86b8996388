#!/usr/bin/env python3
"""Repo benchmark: builds the simulator from source and measures one workload.

    python3 perfbench/run.py --workload fleet_bulk|spec_zoo|short_flows \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
`perfbench/` (which compiles `src/`) into `.bench_build/`; later calls only
re-check the build.

A seed stands for INSTANCES workload instances, with instance seeds
N*INSTANCES .. N*INSTANCES+INSTANCES-1. One repetition is one instance in a
fresh process: a fresh set-up and one run to the horizon. Repetitions cycle
through the instances until `--seconds` have passed; every instance runs at
least once. Host metrics (times, memory) are medians over all repetitions.
Simulated metrics pool the instances: the connections and flows of all
INSTANCES instances together.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics, the layer self times and
the tracing overhead; the last traced repetition leaves its spans in
`.bench_out/spans-<workload>.jsonl`.

Every repetition checks its own outputs (delivered <= written per
connection; in spec_zoo, identical results across the three backends), and
this script checks that all repetitions of an instance, traced or not, ran
the same simulation (same events, same per-connection bytes). The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fleet_bulk", "spec_zoo", "short_flows")
INSTANCES = 8
REP_TIMEOUT_S = 120
# Bookkeeping of the span buffer: printed, but not layer metrics.
TRACER_INFO = ("trace.spans_kept", "trace.span_stride")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return BUILD / "perfbench"


def repetition(binary, workload, seed, traced):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(OUT / f"spans-{workload}.jsonl")]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"repetition exited with {done.returncode}: "
                           + done.stderr.strip())
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest rank, as the simulator's Summary::percentile."""
    ordered = sorted(values)
    rank = int(p / 100 * (len(ordered) - 1) + 0.5)
    return ordered[min(rank, len(ordered) - 1)]


def consistency_errors(reps):
    """All repetitions of an instance must run the same simulation."""
    errors = []
    first = {}
    for r in reps:
        errors += r["errors"]
        ref = first.setdefault(r["seed"], r)
        if (r["digest"], r["events"]) != (ref["digest"], ref["events"]):
            errors.append(
                f"instance {r['seed']}: digest {ref['digest']}/{ref['events']} "
                f"(traced={ref['traced']}) vs {r['digest']}/{r['events']} "
                f"(traced={r['traced']})")
    return errors


def instances(reps):
    """One repetition per instance seed, in instance order."""
    by_seed = {}
    for r in reps:
        by_seed.setdefault(r["seed"], r)
    return [by_seed[s] for s in sorted(by_seed)]


def end_to_end(reps):
    pool = instances(reps)
    delivered = [d for r in pool for d in r["conn_delivered"]]
    conn_mbps = [m for r in pool for m in r["conn_mbps"]]
    fct = [f for r in pool for f in r["fct_ms"]]
    sq = sum(d * d for d in delivered)

    def host(key):
        return statistics.median(r[key] for r in reps)

    values = {
        "setup_s": (host("setup_s"), "s"),
        "run_s": (host("run_s"), "s"),
        "peak_rss_mb": (host("peak_rss_kb") / 1024, "MB"),
        "rss_kb_per_conn": (host("rss_kb_per_conn"), "KB"),
        "goodput_mbps": (statistics.mean(
            r["delivered_bytes"] * 8 / r["horizon_s"] / 1e6 for r in pool), "Mbps"),
        "jain_goodput": (sum(delivered) ** 2 / (len(delivered) * sq) if sq else 0.0,
                         "index"),
        "fct_p50_ms": (percentile(fct, 50), "ms"),
        "fct_p99_ms": (percentile(fct, 99), "ms"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    attempted = sum(r["conns_attempted"] for r in pool)
    failed = sum(r["conns_failed"] for r in pool)
    print(f"# {reps[0]['workload']}: {len(reps)} repetitions of instances "
          f"{', '.join(str(r['seed']) for r in pool)}; host metrics are medians "
          f"over repetitions, simulated metrics pool the instances")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"conn_fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    print(f"conn_goodput_p10_mbps {percentile(conn_mbps, 10):.6g} Mbps")
    print(f"conn_goodput_p50_mbps {percentile(conn_mbps, 50):.6g} Mbps")
    print(f"fct_samples {len(fct)} count "
          f"({sum(r['fct_censored'] for r in pool)} still open at the horizon, "
          f"entered at their age)")
    for r in pool:
        print(f"instance {r['seed']}: events {r['events']}, delivered "
              f"{r['delivered_bytes']} B of {r['written_bytes']} B written, "
              f"digest {r['digest']}")
    return metrics, attempted, failed


def per_layer(timed, traced):
    names = [layer[0] for layer in traced[0]["layers"]
             if layer[0] not in TRACER_INFO]
    units = {layer[0]: layer[2] for layer in traced[0]["layers"]}
    metrics = {}
    for name in names:
        values = [dict((l[0], l[1]) for l in r["layers"])[name] for r in traced]
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    run_traced = statistics.median(r["run_s"] for r in traced)
    run_untraced = statistics.median(r["run_s"] for r in timed)
    overhead = run_traced - run_untraced
    metrics["trace.run_s_traced"] = {"value": run_traced, "unit": "s"}
    metrics["trace.run_s_untraced"] = {"value": run_untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead / run_untraced,
                                       "unit": "ratio"}

    print(f"# {traced[0]['workload']}: {len(traced)} traced + {len(timed)} "
          f"untraced repetitions, medians")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    last = dict((l[0], l[1]) for l in traced[-1]["layers"])
    print(f"span buffer: kept {last['trace.spans_kept']:.0f} run spans, every "
          f"{last['trace.span_stride']:.0f}th event with its children")
    # Ratios with their bases.
    v = {k: m["value"] for k, m in metrics.items()}
    print(f"ratio sim.link.drop_ratio = (drops_queue {v['sim.link.drops_queue']:.0f}"
          f" + drops_loss {v['sim.link.drops_loss']:.0f}) / pkts {v['sim.link.pkts']:.0f}")
    print(f"ratio tcp.retx_ratio = retransmits {v['tcp.retransmits']:.0f} / "
          f"(segments_sent {v['tcp.segments_sent']:.0f} + retransmits)")
    execs = sum(v[f"runtime.execs.{b}"] for b in
                ("interpreter", "compiled", "ebpf", "native"))
    print(f"ratio runtime.useful_ratio = useful_execs {v['runtime.useful_execs']:.0f}"
          f" / execs {execs:.0f}")
    print(f"ratio runtime.share.* = exec time / traced run_s {run_traced:.4f} s")
    print("ratio sim.stale_ratio = sum(heap_depth - pending) / sum(heap_depth)"
          " over the run_until slices")
    print(f"ratio trace.overhead_ratio = overhead_s / untraced run_s "
          f"{run_untraced:.4f} s")
    # Self times of the layers against the traced run time.
    self_sum = (v["layer.sim.self_s"] + v["layer.runtime.self_s"]
                + v["layer.unattributed_s"])
    print(f"self times: sim {v['layer.sim.self_s']:.4f} s + runtime "
          f"{v['layer.runtime.self_s']:.4f} s + outside events "
          f"{v['layer.unattributed_s']:.4f} s = {self_sum:.4f} s; traced run_s "
          f"{run_traced:.4f} s; |traced - untraced| = {abs(overhead):.4f} s; "
          f"outside events within it: "
          f"{'yes' if v['layer.unattributed_s'] <= abs(overhead) else 'no'}")
    pool = instances(timed)
    return (metrics, sum(r["conns_attempted"] for r in pool),
            sum(r["conns_failed"] for r in pool))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    seeds = [args.seed * INSTANCES + j for j in range(INSTANCES)]

    try:
        binary = build()
        deadline = time.monotonic() + args.seconds
        timed, traced = [], []
        # With tracing, traced and untraced repetitions alternate so both see
        # the same machine conditions.
        while (time.monotonic() < deadline or len(timed) < INSTANCES
               or (args.trace and len(traced) < INSTANCES)):
            with_trace = bool(args.trace) and len(traced) < len(timed)
            done = traced if with_trace else timed
            seed = seeds[len(done) % INSTANCES]
            done.append(repetition(binary, args.workload, seed, with_trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        return 1

    errors = consistency_errors(timed + traced)
    for e in errors:
        print(f"CHECK FAILED: {e}")
    metrics, attempted, failed = (per_layer(timed, traced) if args.trace
                                  else end_to_end(timed))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
