#!/usr/bin/env python3
"""linkmark benchmark: one command for the owner, subgraph and judge workflows.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. Each workload runs in its own child
process (perfbench/worker.py) with OPENBLAS/OMP/MKL threads pinned to 1
before numpy loads and with `src/` of this checkout on PYTHONPATH. This
parent reads the child's peak RSS from the rusage `wait4` returns, prints
the environment header, every metric by name with its unit and the output
checks, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, from spans recorded around every
public function of the linkmark layer modules (see tracer.py). A failed
output check, a failed operation or a child that does not finish makes the
exit status nonzero. perfbench/baseline.json records the seed's baseline,
the tuning and holdout seeds, and which end-to-end metric each layer metric
should move.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170.0

# units of the metrics each workload reports besides BENCHMARK.json's
REPORT_UNITS = {
    "error_rate": "ratio",
    "train_epochs_per_s": "1/s", "trigger_auc": "auc", "test_auc": "auc",
    "attack_s": "s", "attacks_resisted": "count", "register_per_s": "1/s",
    "verify_s": "s", "serve_qps": "1/s", "serve_p50_us": "us", "serve_p999_us": "us",
    "serve_p999_tail_samples": "count", "serve_samples": "count",
    "malformed_lines": "count", "malformed_failed": "count", "serve_failed": "count",
}


def git_rev() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a child; returns (result dict or None, peak RSS MB)."""
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    result_path = OUT / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                            env.get("PYTHONPATH")]))})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--result", str(result_path), "--workdir", str(OUT / f"work-{tag}")]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            print(f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f} s and was killed",
                  file=sys.stderr)
            return None, 0.0
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0 or not result_path.exists():
        print(f"{workload}: child exited {proc.returncode} without a result", file=sys.stderr)
        return None, peak_rss_mb
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, peak_rss_mb


def print_header(result: dict) -> None:
    env = result["env"]
    print(f"# git {git_rev()}  nproc {env['nproc']}  blas_threads {env['blas_threads']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"src/linkmark lines {env['src_linkmark_lines']} "
          f"sha256 {env['src_linkmark_sha256']}")


def report_untraced(name: str, result: dict, peak_rss_mb: float, spec: dict) -> dict:
    """Print every metric of one untraced run; return them all."""
    units = dict(REPORT_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]})
    m = dict(result["metrics"])
    m.update(setup_s=result["setup_s"], run_s=result["run_s"], peak_rss_mb=peak_rss_mb)
    m.setdefault("error_rate", result["failed"] / result["attempted"])
    setups = sorted(result["setups"])
    print(f"## {name} seed {result['seed']}: {result['passes']} pass(es) "
          f"{['%.3f' % s for s in result['pass_seconds']]} s; {len(setups)} set-ups "
          f"{setups[0]:.4f}..{setups[-1]:.4f} s; import {result['import_s']:.3f} s")
    print(f"{name:>15} attempted {result['attempted']} failed {result['failed']}")
    for key in ("setup_s", "run_s", "peak_rss_mb", "error_rate"):
        print(f"{name:>15} {key:<24} {m[key]:>14.6g} {units[key]}")
    for key, value in result["metrics"].items():
        if key != "error_rate":
            print(f"{name:>15} {key:<24} {value:>14.6g} {units[key]}")
    return m


def report_traced(name: str, result: dict, per_layer: list) -> dict:
    layers = result["layers"]
    overhead = layers["trace.overhead_s"]
    print(f"## {name} seed {result['seed']} traced: {layers['trace.spans']} spans over "
          f"{layers['trace.bindings']} bindings -> {result['trace_file']}")
    print(f"{name:>15} run_s untraced {result['run_s_untraced']:.4f} s, traced "
          f"{result['run_s_traced']:.4f} s, overhead {overhead:.4f} s "
          f"({100 * overhead / result['run_s_untraced']:.1f}%)")
    for key, want in result["expected_calls"].items():
        print(f"{name:>15} self-test {key:<44} {layers.get(key, 0):>8} want {want}")
    for metric in per_layer:
        print(f"{name:>15} {metric['name']:<44} {layers.get(metric['name'], 0):>14.6g} "
              f"{metric['unit']}")
    return {m["name"]: layers.get(m["name"], 0) for m in per_layer}


def run_workload(name: str, args, spec: dict, header: bool):
    result, peak_rss_mb = run_child(name, args.seed, args.seconds, args.trace)
    if result is None:
        return None
    if header:
        print_header(result)
    if args.trace:
        values = report_traced(name, result, spec["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = report_untraced(name, result, peak_rss_mb, spec)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for failure in result["failures"]:
        print(f"{name:>15} CHECK FAILED: {failure}")
    print(f"{name:>15} output checks: {'all passed' if result['correct'] else 'FAILED'}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return result["correct"], result["attempted"], result["failed"], metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    selected = names if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for i, name in enumerate(selected):
        out = run_workload(name, args, spec, header=(i == 0))
        if out is None:
            return 1
        ok, att, fail, values = out
        correct &= ok
        attempted += att
        failed += fail
        if len(selected) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
