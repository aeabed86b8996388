#!/usr/bin/env python3
"""Warn-only perf trend gate for the queue-layer micro-bench.

Diffs a fresh BENCH_queue.json (bench_queue --out BENCH_queue.json)
against the committed baseline (bench/baselines/BENCH_queue.json), keyed
on (op, repr, entries) over ns_per_op (higher is worse), and emits GitHub
Actions ::warning:: annotations for any flat-ring row that grew more than
the threshold (default 25%).

    python3 scripts/check_queue_regression.py BENCH_queue.json

Always exits 0: shared CI runners make single-op nanosecond timings too
noisy to fail the build on — the annotations are a trend signal for
reviewers, not a gate. Stdlib only.
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    return {(r["op"], r["repr"], r["entries"]): r for r in data.get("rows", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_queue.json")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_queue.json",
        help="committed reference JSON",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="ns_per_op growth that triggers a warning (0.25 = 25%%)",
    )
    args = parser.parse_args()

    try:
        baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"::warning::queue perf gate skipped: {err}")
        return 0

    regressions = []
    for key, base_row in sorted(baseline.items()):
        cur_row = current.get(key)
        if cur_row is None:
            continue
        base = base_row["ns_per_op"]
        cur = cur_row["ns_per_op"]
        if base <= 0:
            continue
        delta = (cur - base) / base  # positive = slower
        op, repr_, entries = key
        tag = f"{op}/{repr_}/{entries}"
        print(f"{tag}: {cur:.2f} ns/op vs baseline {base:.2f} ({delta:+.1%})")
        if delta > args.threshold and cur_row["repr"] == "packet_queue":
            # Only the flat ring is ours to regress; the deque columns are
            # the reference implementation and drift with the toolchain.
            regressions.append((tag, base, cur, delta))

    for tag, base, cur, delta in regressions:
        print(
            f"::warning file=bench/baselines/BENCH_queue.json::"
            f"queue-layer regression: {tag} at {cur:.2f} ns/op, "
            f"{delta:.1%} above the committed baseline ({base:.2f} ns/op). "
            f"If intentional, refresh the baseline with "
            f"bench_queue --out bench/baselines/BENCH_queue.json."
        )
    if not regressions:
        print("queue perf gate: all rows within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
