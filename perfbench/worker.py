"""Run one workload in this process and write its result as JSON.

Started by run.py in a child process whose environment pins BLAS and
OpenMP to one thread before numpy loads. Untraced: set up several times,
then repeat passes for the given seconds and report medians. Traced: one
untraced set-up and pass, then one traced set-up (run id 0) and pass
(run id 1); the difference of the two pass times is the tracing overhead,
and the traced call counts are checked against the workload's own counts.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
# before every pass, set up again until this much set-up time is spent
# (at least once), so set-up samples spread over the whole run
SETUP_ROUND_S = 1.0


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports through its own API."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    sources = [p.read_bytes() for p in sorted((ROOT / "src" / "linkmark").glob("*.py"))]
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "src_linkmark_lines": sum(len(s.splitlines()) for s in sources),
            "src_linkmark_sha256": hashlib.sha256(b"".join(sources)).hexdigest()[:16]}


def run_untraced(wl, seconds: float) -> dict:
    """Set-up rounds and passes alternate until the next pass would end
    after `seconds`; set-up time is not counted against `seconds`."""
    setups, passes, setup_total = [], [], 0.0
    t_phase = time.perf_counter()
    while True:
        if passes:
            # only the last pass is checked; dropping earlier outputs keeps
            # peak RSS independent of how many passes fit in the run
            passes[-1].outputs = {}
        spent = 0.0
        while spent < SETUP_ROUND_S:
            t = time.perf_counter()
            state = wl.setup()
            setups.append(time.perf_counter() - t)
            spent += setups[-1]
        setup_total += spent
        passes.append(wl.run_pass(state))
        elapsed = time.perf_counter() - t_phase - setup_total
        if elapsed + statistics.median(p.seconds for p in passes) > seconds:
            break
    return {"state": state, "passes": passes, "setup_s": statistics.median(setups),
            "setups": setups}


def run_traced(wl, workload_module) -> dict:
    from tracer import Tracer

    state = wl.setup()
    plain = wl.run_pass(state)
    tracer = Tracer()
    bindings = tracer.install(extra_namespaces=[workload_module])
    wl.untraced = tracer.paused
    tracer.run_id = 0
    state = wl.setup()
    tracer.run_id = 1
    traced = wl.run_pass(state)
    tracer.enabled = False
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = traced.seconds - plain.seconds
    layers["trace.spans"] = len(tracer.start)
    layers["trace.bindings"] = bindings
    return {"state": state, "passes": [plain, traced], "tracer": tracer, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import linkmark
    if Path(linkmark.__file__).resolve().parent != (ROOT / "src" / "linkmark").resolve():
        raise ImportError(f"linkmark loaded from {linkmark.__file__}, not from this checkout")
    import workloads

    t_import = time.perf_counter() - T_START
    env = environment()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            run = run_traced(wl, workloads)
        else:
            run = run_untraced(wl, args.seconds)
        passes = run["passes"]
        failures = []
        if any(n != 1 for n in env["blas_threads"].values()) or not env["blas_threads"]:
            failures.append(f"BLAS threads in effect: {env['blas_threads']}, want 1")
        for p in passes:
            failures += p.errors
        failures += wl.check(run["state"], passes[-1])
        # the same state must give the same deterministic outputs every pass
        for key in ("trigger_auc", "test_auc", "attacks_resisted", "error_rate"):
            values = {p.metrics.get(key) for p in passes}
            if len(values) > 1:
                failures.append(f"{key} differs between passes: {sorted(map(str, values))}")
        result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "import_s": t_import,
                  "attempted": passes[-1].attempted if args.trace else sum(p.attempted for p in passes),
                  "failed": passes[-1].failed if args.trace else sum(p.failed for p in passes),
                  "passes": len(passes)}
        if args.trace:
            layers = run["layers"]
            expected = wl.expected_calls(run["state"])
            for key, want in expected.items():
                if layers.get(key, 0) != want:
                    failures.append(f"call-count self-test: {key} = {layers.get(key, 0)}, want {want}")
            layers["protocol.ServeSession.handle_line.failed"] = passes[-1].metrics.get(
                "serve_failed", 0)
            result["layers"] = layers
            result["expected_calls"] = expected
            trace_path = ROOT / ".perfbench_out" / f"trace-{args.workload}-s{args.seed}.npz"
            run["tracer"].save(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
            result["run_s_untraced"] = passes[0].seconds
            result["run_s_traced"] = passes[1].seconds
        else:
            result["setup_s"] = run["setup_s"]
            result["setups"] = run["setups"]
            result["run_s"] = statistics.median(p.seconds for p in passes)
            result["pass_seconds"] = [p.seconds for p in passes]
            keys = passes[0].metrics.keys()
            result["metrics"] = {k: statistics.median(p.metrics[k] for p in passes) for k in keys}
        result["failures"] = failures
        result["correct"] = not failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
