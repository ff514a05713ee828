#!/usr/bin/env python3
"""End-to-end benchmark: build hs_e2e, run workloads, compare runs.

Run from the repository root:

  python3 bench/e2e/run.py                       # every workload once
  python3 bench/e2e/run.py --workload sim-orr-1k --seed 3 --trace 1
  python3 bench/e2e/run.py --runs 5 --out a.json  # repeatability set
  python3 bench/e2e/run.py --compare a.json b.json

The first call configures and builds build-bench/ (Release, the library
plus hs_e2e only). Each workload runs in its own process. Every metric is
printed as `workload metric value unit`; with --workload the last line of
standard output is the run's JSON report. The exit code is non-zero when
a correctness check fails. BENCHMARK.json at the repository root names
the workloads, metrics, units and regression bounds; README.md explains
them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
DRIVER = BUILD / "hs_e2e"
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: library sources (src/) not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "hs_e2e", "-j", "4"],
        check=True, stdout=sys.stderr, timeout=840)


def run_once(spec, workload, seed, seconds, trace):
    """Run one workload in its own process; return the driver's report
    with every metric of the trace level present."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"run.py: {workload} exited {proc.returncode}")
    report = json.loads(lines[-1])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = report["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                raise SystemExit(f"run.py: {workload} did not report "
                                 f"{m['name']}")
            # A layer the workload does not exercise (or cannot time
            # without changing the run, see README.md) reads 0.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            raise SystemExit(f"run.py: {m['name']} unit {got['unit']} != "
                             f"{m['unit']}")
    report["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return report


def print_metrics(workload, report):
    for name, m in report["metrics"].items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    for failure in report["failures"]:
        print(f"{workload} CHECK FAILED: {failure}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(spec, args, workloads):
    """--runs: N rounds, alternating workloads, same seed every time."""
    values = {w: {} for w in workloads}
    units = {}
    correct = True
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            report = run_once(spec, w, args.seed, args.seconds, args.trace)
            log(f"round {r + 1}/{args.runs} {w}: "
                f"{'ok' if report['correct'] else 'CHECK FAILED'}")
            correct &= report["correct"]
            for name, m in report["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
    summary = {}
    for w in workloads:
        summary[w] = {}
        for name, vals in values[w].items():
            q1, median, q3 = quartiles(vals)
            summary[w][name] = {"median": median, "q1": q1, "q3": q3,
                                "unit": units[name], "values": vals}
            spread = (q3 - q1) / median if median else 0.0
            print(f"{w} {name} {median:.6g} {units[name]} "
                  f"[q1 {q1:.6g} q3 {q3:.6g} spread {spread:.2%}]")
    result = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "runs": args.runs, "correct": correct, "workloads": summary}
    out = Path(args.out) if args.out else BUILD / "e2e-runs.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    log(f"wrote {out}")
    return 0 if correct else 1


def compare(spec, path_a, path_b):
    """Check each end-to-end median of b against a within its bound."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressions = 0
    for w in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            if name not in a[w] or name not in b[w]:
                continue
            ma, mb = a[w][name], b[w][name]
            lower = m["better"] == "lower"
            change = (mb["median"] - ma["median"]) / ma["median"]
            worse = change if lower else -change
            spread = max((s["q3"] - s["q1"]) / s["median"]
                         for s in (ma, mb) if s["median"])
            if lower:
                all_better = max(mb["values"]) < min(ma["values"])
            else:
                all_better = min(mb["values"]) > max(ma["values"])
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressions += 1
            elif -worse > spread:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{w} {name} {ma['median']:.6g} -> {mb['median']:.6g} "
                  f"{m['unit']} ({change:+.2%}, bound {bound:.0%}, "
                  f"spread {spread:.2%}) {verdict}")
    return 1 if regressions else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced rerun")
    parser.add_argument("--runs", type=int, default=0,
                        help="repeat N rounds and report quartiles")
    parser.add_argument("--out", help="JSON file for --runs / all-workload "
                        "results (default under build-bench/)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --runs files")
    args = parser.parse_args()

    if args.compare:
        return compare(spec, *args.compare)
    build()
    workloads = [args.workload] if args.workload else names
    if args.runs:
        return run_set(spec, args, workloads)

    results = {}
    for w in workloads:
        report = run_once(spec, w, args.seed, args.seconds, args.trace)
        print_metrics(w, report)
        results[w] = report
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        r = results[args.workload]
        print(json.dumps({"correct": r["correct"],
                          "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": r["metrics"]}))
    else:
        out = Path(args.out) if args.out else BUILD / "e2e-results.json"
        out.write_text(json.dumps(results, indent=1) + "\n")
        log(f"wrote {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
