#!/usr/bin/env python3
"""Guard the health layer's idle acquire-p99 tax from a bench rounds file.

The serving p99 microbenchmarks report the batch p99 as their iteration
time (see bench/micro_serving.cpp), so each benchmark's minimum
real_time over the rounds IS its least-contended tail-latency estimate.
Within one rounds file (so the comparison is same-runner and avoids the
cross-run noise that forces bench_to_json.py's --latency-regression gate
to use a wide margin), BM_ServingAcquireP99Health (health on but idle:
every acquire arms a release deadline that never expires) is compared
with BM_ServingAcquireP99LeastLoad (same stack, health off). Arming is
O(1) — a ring store plus two counter bumps — but it does touch the
deadline ring and a per-machine counter, so the measured tax is a few
tens of ns of cache traffic at n = 10^4. The default ceiling
(--idle-max-ratio 1.5) leaves room for that while still failing loudly
if the per-acquire work ever becomes O(machines) or O(in-flight), which
shows up as a 10-100x ratio.

The A/B bound against the base ref ("acquire p99 unchanged, <= 1.01x,
with the health layer compiled in but off") is
`bench_to_json.py --ab-baseline ROUNDS --latency-regression 1`.

Usage:
    python3 scripts/check_health_overhead.py rounds.jsonl \
        [--idle-max-ratio 1.5]

Only Python's standard library is used.
"""

import argparse
import json
import sys
from pathlib import Path

BASELINE_BENCH = "BM_ServingAcquireP99LeastLoad"
HEALTH_BENCH = "BM_ServingAcquireP99Health"


def parse_runs(path):
    """Yield google-benchmark JSON documents from a file that may hold
    several of them back to back."""
    text = Path(path).read_text()
    decoder = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            return
        doc, end = decoder.raw_decode(text, pos)
        yield doc
        pos = end


def collect_minima(path):
    """name -> {"real_time": min over rounds, "unit": ...}."""
    minima = {}
    for doc in parse_runs(path):
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            entry = minima.setdefault(
                bench["name"],
                {"real_time": float("inf"), "unit": bench["time_unit"]},
            )
            entry["real_time"] = min(entry["real_time"], bench["real_time"])
    return minima


def gate_ratio(label, value, baseline, ceiling, unit):
    ratio = value / baseline
    verdict = "OK" if ratio <= ceiling else "REGRESSION"
    print(f"{label}: {value} vs {baseline} {unit} -> "
          f"ratio {ratio:.4f} (ceiling {ceiling}): {verdict}")
    return ratio <= ceiling


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="candidate rounds file (google-"
                                      "benchmark JSON runs, concatenated)")
    parser.add_argument("--idle-max-ratio", type=float, default=1.5,
                        help="ceiling on p99(health idle) / p99(health "
                             "off) within the candidate file (default: "
                             "%(default)s)")
    args = parser.parse_args()

    minima = collect_minima(args.input)
    off = [v for k, v in minima.items() if k.split("/")[0] == BASELINE_BENCH]
    idle = [v for k, v in minima.items() if k.split("/")[0] == HEALTH_BENCH]
    if not off or not idle:
        sys.exit(f"need both {BASELINE_BENCH} and {HEALTH_BENCH} in "
                 f"{args.input}")
    if off[0]["unit"] != idle[0]["unit"]:
        sys.exit(f"unit mismatch: {off[0]['unit']} vs {idle[0]['unit']}")
    if off[0]["real_time"] <= 0.0:
        sys.exit("non-positive health-off baseline p99")
    if not gate_ratio(f"idle-tax {HEALTH_BENCH}", idle[0]["real_time"],
                      off[0]["real_time"], args.idle_max_ratio,
                      off[0]["unit"]):
        sys.exit(1)


if __name__ == "__main__":
    main()
