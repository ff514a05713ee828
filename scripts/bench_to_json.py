#!/usr/bin/env python3
"""Append a google-benchmark run to the BENCH_sim.json trajectory.

Workflow (details in docs/PERFORMANCE.md):

    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release -DHS_BUILD_BENCH=ON
    cmake --build build-rel -j
    for i in $(seq 1 8); do
      ./build-rel/bench/micro_sim --benchmark_min_time=0.1 \
          --benchmark_format=json >> /tmp/bench_rounds.jsonl
    done
    python3 scripts/bench_to_json.py /tmp/bench_rounds.jsonl \
        --label my-change --engine "one-line description" [--dry-run]

The input file holds one or more google-benchmark JSON documents
(concatenated runs are fine). For every benchmark the MINIMUM real_time
across all runs is kept — on shared hosts the minimum is the robust
summary; means and single runs drift with background load. The script
appends one entry to the "entries" list, preserving everything already
recorded, and derives speedups against a chosen baseline entry.

Same-runner A/B gate: with --ab-baseline ROUNDS the baseline is not a
recorded entry but the minima of a second rounds file, taken from the
base-ref binary in rounds interleaved with the input's on the same host,
so --check-regression and --latency-regression do not move with the
host that recorded the last entry:

    python3 scripts/bench_to_json.py new.jsonl --label ab --dry-run \
        --ab-baseline base.jsonl --check-regression 10 \
        --latency-regression 50

Only Python's standard library is used.
"""

import argparse
import json
import re
import sys
from datetime import date
from pathlib import Path

# Completed jobs per iteration of the end-to-end cluster benchmark
# (mean over its seed cycle; see bench/micro_sim.cpp). Used to derive
# jobs_per_sec from the minimum iteration time.
CLUSTER_JOBS_PER_ITER = 14895.0
CLUSTER_BENCH = "BM_FullClusterSimulation"

# Headline latency benchmarks: lower-is-better real_time metrics gated
# by --latency-regression. BM_PsServerEvict is one hedge cancellation
# (evict plus arrive) on a PS server at a steady depth. The serving p99
# benches report the batch p99 as their iteration time (see
# bench/micro_serving.cpp), so real_time there IS the tail latency, and
# min-over-rounds keeps the least contended estimate.
HEADLINE_LATENCY = [
    r"^BM_PsServerEvict/",
    r"^BM_ServingAcquireP99LeastLoad/",
    r"^BM_ServingAcquireP99Alias/",
    r"^BM_ServingAcquireP99Health/",
    r"^BM_ServingAcquireP99Orr/",
]


def is_headline_latency(name):
    return any(re.search(p, name) for p in HEADLINE_LATENCY)


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


def collect_minima(runs):
    """name -> {"real_time": min, "unit": ...} over all runs."""
    minima = {}
    for doc in runs:
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench["name"]
            entry = minima.setdefault(
                name, {"real_time": float("inf"), "unit": bench["time_unit"]}
            )
            entry["real_time"] = min(entry["real_time"], bench["real_time"])
    return minima


def summarize(minima):
    """Rounded minima per benchmark, plus the cluster benchmark's
    jobs_per_sec derived from its minimum iteration time."""
    results = {}
    for name in sorted(minima):
        results[name] = {
            "real_time": round(minima[name]["real_time"], 3),
            "unit": minima[name]["unit"],
        }
        if name == CLUSTER_BENCH:
            unit = minima[name]["unit"]
            scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
            seconds = minima[name]["real_time"] * scale
            results[name]["jobs_per_sec"] = round(
                CLUSTER_JOBS_PER_ITER / seconds
            )
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="file of google-benchmark JSON runs")
    parser.add_argument("--label", required=True,
                        help="entry label, e.g. pr3-heap-tuning")
    parser.add_argument("--engine", default="",
                        help="one-line description of the engine state")
    parser.add_argument("--commit", default="",
                        help="commit hash the binary was built from")
    parser.add_argument("--build", default="Release, gcc -O3")
    parser.add_argument("--baseline", default=None,
                        help="label of the entry to compute speedups "
                             "against (default: previous entry)")
    parser.add_argument("--trajectory", default=None,
                        help="path to BENCH_sim.json (default: repo root "
                             "relative to this script)")
    parser.add_argument("--ab-baseline", default=None, metavar="ROUNDS",
                        help="gate against the minima of this rounds file "
                             "(the base-ref binary, run interleaved with "
                             "the input on the same host) instead of a "
                             "recorded entry")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the new entry instead of writing")
    parser.add_argument("--check-regression", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) if the cluster benchmark's "
                             "jobs/sec fell more than PCT%% below the "
                             "baseline entry's recorded value")
    parser.add_argument("--latency-regression", type=float, default=None,
                        metavar="PCT",
                        help="fail (exit 1) if any headline latency "
                             "benchmark (lower is better; see "
                             "HEADLINE_LATENCY) rose more than PCT%% "
                             "above the baseline entry's recorded value")
    args = parser.parse_args()

    trajectory_path = Path(
        args.trajectory
        or Path(__file__).resolve().parent.parent / "BENCH_sim.json"
    )
    trajectory = json.loads(trajectory_path.read_text())

    minima = collect_minima(parse_runs(args.input))
    if not minima:
        sys.exit("no benchmark results found in " + args.input)
    results = summarize(minima)

    entry = {
        "label": args.label,
        "date": date.today().isoformat(),
        "build": args.build,
        "results": results,
    }
    if args.engine:
        entry["engine"] = args.engine
    if args.commit:
        entry["commit"] = args.commit

    entries = trajectory.setdefault("entries", [])
    baseline = None
    if args.ab_baseline:
        if args.baseline:
            sys.exit("--ab-baseline and --baseline are exclusive")
        base_minima = collect_minima(parse_runs(args.ab_baseline))
        if not base_minima:
            sys.exit("no benchmark results found in " + args.ab_baseline)
        baseline = {"label": "A/B " + args.ab_baseline,
                    "results": summarize(base_minima)}
    elif args.baseline:
        matches = [e for e in entries if e["label"] == args.baseline]
        if not matches:
            sys.exit("baseline label not found: " + args.baseline)
        baseline = matches[-1]
    elif entries:
        baseline = entries[-1]
    if baseline is not None:
        speedups = {"baseline": baseline["label"]}
        for name, res in results.items():
            base = baseline["results"].get(name)
            if base and base["unit"] == res["unit"] and res["real_time"] > 0:
                speedups[name] = round(base["real_time"] / res["real_time"], 2)
        entry["speedup_vs"] = speedups

    if args.check_regression is not None:
        # Gate on throughput of the end-to-end cluster benchmark: the
        # one number every engine change must not silently regress.
        if baseline is None:
            sys.exit("--check-regression needs a baseline entry")
        base_res = baseline["results"].get(CLUSTER_BENCH, {})
        base_jps = base_res.get("jobs_per_sec")
        new_jps = results.get(CLUSTER_BENCH, {}).get("jobs_per_sec")
        if not new_jps:
            print(f"--check-regression: {CLUSTER_BENCH} not in this run; "
                  f"skipping gate")
        elif not base_jps:
            # A baseline that lacks the gated number would pass anything.
            sys.exit(f"--check-regression: baseline '{baseline['label']}' "
                     f"records no {CLUSTER_BENCH} jobs_per_sec")
        else:
            floor = base_jps * (1.0 - args.check_regression / 100.0)
            verdict = "OK" if new_jps >= floor else "REGRESSION"
            print(
                f"{CLUSTER_BENCH}: {new_jps} jobs/sec vs baseline "
                f"'{baseline['label']}' {base_jps} "
                f"(floor {floor:.0f}, -{args.check_regression}%): {verdict}"
            )
            if new_jps < floor:
                sys.exit(1)

    if args.latency_regression is not None:
        # Gate on the lower-is-better headline latencies: each one in
        # this run must stay within PCT% of the baseline's value, and a
        # baseline that does not record it fails the gate instead of
        # skipping it. Latency on shared runners is far noisier than
        # throughput, so CI passes a wide margin here.
        if baseline is None:
            sys.exit("--latency-regression needs a baseline entry")
        compared = 0
        failed = []
        for name, res in sorted(results.items()):
            if not is_headline_latency(name):
                continue
            base = baseline["results"].get(name)
            if not base and args.ab_baseline:
                # The base-ref binary predates this benchmark; the
                # cross-run gate still needs it recorded.
                print(f"{name}: not in '{baseline['label']}'; skipped")
                continue
            if not base or base["unit"] != res["unit"]:
                print(f"{name}: no baseline in '{baseline['label']}'")
                failed.append(name)
                continue
            compared += 1
            ceiling = base["real_time"] * (1.0 + args.latency_regression / 100.0)
            verdict = "OK" if res["real_time"] <= ceiling else "REGRESSION"
            print(
                f"{name}: {res['real_time']} {res['unit']} vs baseline "
                f"'{baseline['label']}' {base['real_time']} "
                f"(ceiling {ceiling:.3f}, +{args.latency_regression}%): "
                f"{verdict}"
            )
            if res["real_time"] > ceiling:
                failed.append(name)
        if compared == 0 and not failed:
            print("--latency-regression: no headline latency benchmarks "
                  "in this run; skipping gate")
        if failed:
            sys.exit(1)

    if args.dry_run:
        json.dump(entry, sys.stdout, indent=2)
        print()
        return
    entries.append(entry)
    trajectory_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"appended '{args.label}' to {trajectory_path}")


if __name__ == "__main__":
    main()
