#!/usr/bin/env python3
"""Run run.py several times per workload, one seed per run, and report each
metric's median and quartile spread (IQR over median, from
statistics.quantiles(values, n=4)) against its bound in BENCHMARK.json.

    python3 perfbench/stability.py [--workloads a,b] [--seeds 1,2,...] [--out FILE]

Workload-level metrics printed before run.py's final line (AUCs, serve
latency, registrations per second, ...) are collected too. Runs are
sequential; each is a full run.py invocation with the default seconds.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LINE = re.compile(r"^\s*(\w+) (\w+)\s+(-?[0-9.e+-]+) (\S+)$")


def one_run(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    values = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match and match.group(1) == workload:
            values[match.group(2)] = float(match.group(3))
    final = json.loads(lines[-1])
    values.update({k: v["value"] for k, v in final["metrics"].items()})
    return values


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={runs[-1][k]:.4g}" for k in bounds), flush=True)
        report[workload] = {}
        for key in runs[0]:
            values = [r[key] for r in runs]
            med, rel = spread(values)
            report[workload][key] = {"median": med, "iqr_over_median": rel, "values": values}
            bound = bounds.get(key)
            flag = "" if bound is None else (
                f" bound {bound}  {'ok' if rel < bound / 3 else 'WIDE' if rel < bound else 'OVER'}")
            print(f"  {workload:>15} {key:<24} median {med:<12.6g} spread {rel:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
