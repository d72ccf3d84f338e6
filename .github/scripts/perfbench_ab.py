#!/usr/bin/env python3
"""Paired A/B gate over the repository benchmark.

Usage: perfbench_ab.py BASE_PERFBENCH HEAD_PERFBENCH

Both arguments are `tiscc-perfbench` binaries, each built inside a checkout
of its commit. The benchmark is defined by the base checkout's
BENCHMARK.json, the nearest one above the base binary: its workloads, its
`run_seconds` and its end-to-end metrics with their bounds, so a change
cannot loosen the bounds it is judged by. A workload or end-to-end metric
that only the head's BENCHMARK.json names is listed as new, not compared.

For every workload the two binaries run PAIRS alternating pairs at
`--seconds run_seconds --trace 0` (pair i uses seed i + 1; the base runs
first on even pairs), so host drift hits both sides alike.

The gate fails when any run exits non-zero or reports `failed > 0` (the
benchmark's own correctness checks). Otherwise each (workload, metric) row
compares the head median with the base median, in the direction the
metric's `better` field gives. When the base runs' own interquartile range
is wider than the metric's `bound` of their median, the runs spread too
widely to tell: the row is unresolved, which is reported but does not
fail. Otherwise a head worse by more than `bound` is WORSE and fails the
gate with exit 1, and one within it is ok.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# Ten pairs of `run_seconds` (20 s) runs per workload: about 24 min for the
# three workloads on 2 vCPUs (each run also spends ~4 s in set-up and checks).
PAIRS = 10


def spec_above(binary):
    """The BENCHMARK.json of the checkout a perfbench binary was built in."""
    for directory in Path(os.path.abspath(binary)).parents:
        spec = directory / "BENCHMARK.json"
        if spec.is_file():
            return json.loads(spec.read_text())
    raise SystemExit(f"perfbench_ab: no BENCHMARK.json above {binary}")


def run(binary, workload, seed, seconds):
    """Runs one benchmark process and returns its metrics as name -> value."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {}
    if proc.returncode != 0 or report.get("failed", 1) > 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(
            f"perfbench_ab: {' '.join(cmd)} exited {proc.returncode} "
            f"with failed={report.get('failed')}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def run_pairs(base, head, workload, seconds):
    """Alternating pairs of one workload: (base runs, head runs)."""
    base_runs, head_runs = [], []
    for i in range(PAIRS):
        sides = [(base, base_runs), (head, head_runs)]
        for binary, runs in sides if i % 2 == 0 else reversed(sides):
            runs.append(run(binary, workload, i + 1, seconds))
    return base_runs, head_runs


def compare(metric, base_values, head_values):
    """(base median, head median, how much worse the head is, base spread, verdict)."""
    b = statistics.median(base_values)
    h = statistics.median(head_values)
    change = h / b - 1.0
    worse = change if metric["better"] == "lower" else -change
    q1, _, q3 = statistics.quantiles(base_values, n=4)
    spread = (q3 - q1) / b
    if spread > metric["bound"]:
        verdict = "unresolved"
    elif worse > metric["bound"]:
        verdict = "WORSE"
    else:
        verdict = "ok"
    return b, h, worse, spread, verdict


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: perfbench_ab.py BASE_PERFBENCH HEAD_PERFBENCH")
    base, head = argv
    spec, head_spec = spec_above(base), spec_above(head)
    base_workloads = [w["name"] for w in spec["workloads"]]
    head_workloads = [w["name"] for w in head_spec["workloads"]]
    new_metrics = [m["name"] for m in head_spec["end_to_end"]
                   if m["name"] not in {n["name"] for n in spec["end_to_end"]}]
    print(f"{'workload':<18} {'metric':<15} {'base':>10} {'head':>10} "
          f"{'worse by':>9} {'base IQR':>9} {'bound':>6}  verdict")
    verdicts = []
    for name in base_workloads:
        if name not in head_workloads:
            print(f"{name:<18} {'-':<15} dropped by the head, not compared")
            continue
        base_runs, head_runs = run_pairs(base, head, name, spec["run_seconds"])
        for metric in spec["end_to_end"]:
            key = metric["name"]
            if any(key not in r for r in base_runs + head_runs):
                print(f"{name:<18} {key:<15} not reported by both sides, not compared")
                continue
            b, h, worse, spread, verdict = compare(
                metric, [r[key] for r in base_runs], [r[key] for r in head_runs])
            verdicts.append(verdict)
            print(f"{name:<18} {key:<15} {b:>10.4g} {h:>10.4g} {worse:>+8.1%} "
                  f"{spread:>9.1%} {metric['bound']:>6.0%}  {verdict}", flush=True)
        for key in new_metrics:
            print(f"{name:<18} {key:<15} new in the head, not compared")
    for name in head_workloads:
        if name not in base_workloads:
            print(f"{name:<18} {'-':<15} new in the head, not compared")
    if "WORSE" in verdicts:
        raise SystemExit(
            f"perfbench_ab: {verdicts.count('WORSE')} metric(s) worse than their bound")
    unresolved = verdicts.count("unresolved")
    print(f"perfbench_ab: no end-to-end metric worse than its bound over {PAIRS} pairs"
          + (f"; {unresolved} unresolved, the base runs spreading wider than the bound"
             if unresolved else ""))


if __name__ == "__main__":
    main(sys.argv[1:])
