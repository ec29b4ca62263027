"""Repeat benchmark runs over seeds and summarise each metric by its quartiles.

    python3 perfbench/repeat.py --workloads mixture_sde,joint_sde --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --append-trajectory "label of this commit"

Runs ``run.py`` once per (seed, workload), seeds in the outer loop, and
prints per workload and metric the median, the first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``.  With
``--append-trajectory`` the summary, the machine and the label are appended
to ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append-trajectory", metavar="LABEL")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    machine, failures = None, 0
    chosen = args.workloads.split(",")
    for seed in parse_seeds(args.seeds):
        for name in chosen:
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            machine = json.loads(lines[0]).get("machine", machine)
            failures += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items() if k in bounds}
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}",
                  file=sys.stderr, flush=True)

    summary: dict[str, dict[str, dict[str, float]]] = {}
    for name, metrics in values.items():
        for metric, vals in sorted(metrics.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary.setdefault(name, {})[metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals), "unit": units[metric]}
            bound = bounds.get(metric)
            flag = "" if bound is None else f"bound {bound}" + (" OVER bound/3" if spread > bound / 3 else "")
            print(f"{name:14s} {metric:40s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.4f} {units[metric]} {flag}")
    print(f"failed operations or runs: {failures}")
    if args.append_trajectory:
        trajectory = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY) as fh:
                trajectory = json.load(fh)
        trajectory.append({"label": args.append_trajectory, "seeds": args.seeds,
                           "seconds": args.seconds, "trace": args.trace,
                           "machine": machine, "workloads": summary})
        with open(TRAJECTORY, "w") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
