"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps every public function and public method defined in
the linkmark layer modules and rebinds each wrapped name in every module
that holds it (the defining module, importers such as `embed` and `attacks`
for `nn.loss_and_grads`, module-level dispatch dicts, and any extra
namespace passed in, such as the workload module). Nothing inside `src/`
is edited; calls a module makes to its own globals are traced too.

Each span is kept in memory as (name, start, end, parent, run id) in flat
arrays and written out with `save`. A span's self time is its duration
minus the time its child spans cover.
"""

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("graph", "nn", "watermark", "embed", "stats", "attacks", "protocol", "cli")


def _batch_flops(model, batch) -> float:
    """Computed (not measured) multiply-add count of one loss_and_grads call:
    forward sparse propagation, dense encoder and decoder matmuls, times 3
    for the backward pass (input and weight gradients)."""
    hidden = model.hidden_dim
    layer_dims = [(model.in_dim, hidden), (hidden, hidden), (hidden, hidden)]
    dense_per_node = sum(fi * fo for fi, fo in layer_dims) * (1 if model.arch == "gcn" else 2)
    spmm_per_nnz = sum(fi for fi, _ in layer_dims)
    self_loops = model.arch == "gcn"
    if hasattr(batch, "subgraphs"):
        nodes = sum(sg.num_nodes for sg in batch.subgraphs)
        nnz = sum(2 * len(sg.local_edges) for sg in batch.subgraphs)
        if self_loops:
            nnz += nodes
        readout = nodes * hidden
    else:
        nodes = batch.adjacency.shape[0]
        nnz = batch.adjacency.nnz + (nodes if self_loops else 0)
        readout = len(batch) * hidden
    decoder = len(batch) * (2 * hidden * hidden + 2 * hidden)
    forward = 2.0 * (nnz * spmm_per_nnz + nodes * dense_per_node + decoder) + readout
    return 3.0 * forward


class Tracer:
    """In-memory spans plus per-span counters; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: dict = {}
        self.run_id = 0
        self.enabled = True
        self._stack = [-1]
        self._flops_cache: dict = {}
        self._extras = {
            "nn.loss_and_grads": self._loss_and_grads_counts,
            "stats.dwt_threshold": self._dwt_counts,
            "stats.smoothed_bootstrap_test": self._bootstrap_counts,
            "watermark.serialize_wm": lambda bound, result: {"bytes": len(result)},
            "protocol.read_board": lambda bound, result: {"records": len(result)},
        }

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside the block."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # counters derived from a call's arguments and result

    def _loss_and_grads_counts(self, bound, result):
        model, batch = bound.arguments["model"], bound.arguments["batch"]
        key = (id(batch), model.arch, model.in_dim, model.hidden_dim)
        if key not in self._flops_cache:
            # holding the batch keeps its id from being reused
            self._flops_cache[key] = (batch, _batch_flops(model, batch))
        return {"rows": len(batch), "flops": self._flops_cache[key][1]}

    @staticmethod
    def _dwt_counts(bound, result):
        from linkmark.stats import blocks_required

        args = bound.arguments
        return {"draws": 2 * args["n"] * blocks_required(args["gamma"])}

    @staticmethod
    def _bootstrap_counts(bound, result):
        args = bound.arguments
        reps = args.get("replicates", 100_000)
        return {"draws": reps * (len(args["clean"]) + len(args["watermarked"]))}

    def wrap(self, name: str, fn):
        nid = self._id(name)
        extra = self._extras.get(name)
        signature = inspect.signature(fn) if extra else None
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(tracer.run_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in extra(bound, result).items():
                    tracer.count(f"{name}.{key}", value)
            return result

        return traced

    def install(self, package: str = "linkmark", extra_namespaces=()) -> int:
        """Wrap the layers' public functions and methods; returns the number
        of bindings replaced."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrapped = {}
        for mod, layer in zip(modules, LAYERS):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{layer}.{name}")
        replaced = 0
        namespaces = [vars(importlib.import_module(package))]
        namespaces += [vars(mod) for mod in modules]
        namespaces += [vars(ns) for ns in extra_namespaces]
        for ns in namespaces:
            public = {k: v for k, v in ns.items() if not k.startswith("__")}
            for holder in [ns] + [v for v in public.values() if type(v) is dict]:
                for key, value in list(holder.items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        holder[key] = hit[1]
                        replaced += 1
        return replaced

    def _wrap_methods(self, cls, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(f"{prefix}.{attr}", member.__func__)))

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        return name_id, start, end, parent, run

    def layer_metrics(self) -> dict:
        """Per span name: call count, summed self time, and counters."""
        name_id, start, end, parent, _ = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counters)
        return out

    def save(self, path) -> None:
        name_id, start, end, parent, run = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent, run=run)
