"""Spans around pgkrig's public functions, installed from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper in its
defining module, in every pgkrig module that bound it with `from ... import`
(training and cli do), and on the class for methods. Spans stay in memory:
name, start, end, parent span and stage-run id. `layer_metrics` turns them
into self times (span minus child spans) and counts per layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _table_rows(values) -> int:
    """(time, id) rows of a long table holding a (T, K) or (T, K, 2) array."""
    shape = np.shape(values)
    return int(shape[0] * shape[1])


def _tape(outputs) -> tuple[int, int]:
    """Tape nodes reachable from a forward's outputs and the bytes of their arrays."""
    seen, stack, nbytes = set(), list(outputs), 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(getattr(node, "_parents", ()))
    return len(seen), nbytes


# (module, attribute, layer, counter). A counter maps (result, args) to
# {count name: amount}; span calls are counted for every target anyway.
TARGETS = [
    ("pgkrig.dataio", "read_nodes", "dataio.read", lambda r, a: {"dataio.read_rows": r.n}),
    ("pgkrig.dataio", "read_values", "dataio.read",
     lambda r, a: {"dataio.read_rows": r[1].size}),
    ("pgkrig.dataio", "read_wind", "dataio.read",
     lambda r, a: {"dataio.read_rows": _table_rows(r[1])}),
    ("pgkrig.dataio", "read_aod", "dataio.read", lambda r, a: {"dataio.read_rows": r[1].size}),
    ("pgkrig.dataio", "read_grid_nodes", "dataio.read",
     lambda r, a: {"dataio.read_rows": r.n_cells}),
    ("pgkrig.dataio", "read_grid_inputs", "dataio.read",
     lambda r, a: {"dataio.read_rows": r[1].size}),
    ("pgkrig.dataio", "load_checkpoint", "dataio.read", None),
    ("pgkrig.dataio", "load_config", "dataio.read", None),
    ("pgkrig.dataio", "write_nodes", "dataio.write",
     lambda r, a: {"dataio.write_rows": len(a[1])}),
    ("pgkrig.dataio", "write_values", "dataio.write",
     lambda r, a: {"dataio.write_rows": _table_rows(a[1])}),
    ("pgkrig.dataio", "write_wind", "dataio.write",
     lambda r, a: {"dataio.write_rows": _table_rows(a[1])}),
    ("pgkrig.dataio", "write_aod", "dataio.write",
     lambda r, a: {"dataio.write_rows": _table_rows(a[1])}),
    ("pgkrig.dataio", "write_grid_nodes", "dataio.write",
     lambda r, a: {"dataio.write_rows": a[1].n_cells}),
    ("pgkrig.dataio", "write_grid_inputs", "dataio.write",
     lambda r, a: {"dataio.write_rows": _table_rows(a[2])}),
    ("pgkrig.dataio", "save_checkpoint", "dataio.write", None),
    ("pgkrig.dataio", "write_metrics_log", "dataio.write",
     lambda r, a: {"dataio.write_rows": len(a[1])}),
    ("pgkrig.dataio", "write_report", "dataio.write",
     lambda r, a: {"dataio.write_rows": len(a[1]) + 1}),
    ("pgkrig.testbed", "run_scenario", "testbed.simulate", None),
    ("pgkrig.graphs", "build_geo_adjacency", "graphs.build", None),
    ("pgkrig.graphs", "build_diffusion_operator", "graphs.build", None),
    ("pgkrig.graphs", "advection_sequence", "graphs.build",
     lambda r, a: {"graphs.advection_steps": len(r)}),
    ("pgkrig.network", "KrigingModel.full_forward", "network.forward_self",
     lambda r, a: dict(zip(("autodiff.tape_nodes", "autodiff.tape_bytes"), _tape(r)))),
    ("pgkrig.network", "KrigingModel.encode", "network.encode", None),
    ("pgkrig.network", "KrigingModel.propagate", "network.propagate", None),
    ("pgkrig.network", "KrigingModel.readout", "network.readout", None),
    ("pgkrig.network", "KrigingModel.init_readout", "network.readout", None),
    ("pgkrig.losses", "infer_loss", "losses.recon", None),
    ("pgkrig.losses", "init_loss", "losses.recon", None),
    ("pgkrig.losses", "composite_loss", "losses.recon", None),
    ("pgkrig.losses", "aod_gradient_loss", "losses.proxy", None),
    ("pgkrig.losses", "count_valid_edge_terms", "losses.proxy", None),
    ("pgkrig.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("pgkrig.autodiff", "Adam.step", "autodiff.adam", None),
    ("pgkrig.training", "train", "training.self", None),
    ("pgkrig.training", "infer_stations", "training.self", None),
    ("pgkrig.training", "infer_grid", "training.self", None),
    ("pgkrig.metrics", "mae", "metrics.score", None),
    ("pgkrig.metrics", "rmse", "metrics.score", None),
    ("pgkrig.metrics", "r2", "metrics.score", None),
    ("pgkrig.metrics", "score_per_node", "metrics.score", None),
    ("pgkrig.metrics", "score_pooled", "metrics.score", None),
    ("pgkrig.rendering", "field_frame", "rendering.render", None),
    ("pgkrig.rendering", "render_pgm", "rendering.render", None),
]

STAGE = "stage"  # layer of the root span around one cli.main call
COUNTING = "trace.count"  # layer of the time spent in counters, charged to no layer

# per-layer metric -> unit, in report order
UNITS = {
    "dataio.read_s": "s", "dataio.read_rows": "count",
    "dataio.write_s": "s", "dataio.write_rows": "count",
    "testbed.simulate_s": "s",
    "graphs.build_s": "s", "graphs.build_calls": "count", "graphs.advection_steps": "count",
    "network.forward_calls": "count", "network.forward_self_s": "s",
    "network.encode_s": "s", "network.readout_s": "s",
    "network.propagate_s": "s", "network.propagate_calls": "count",
    "losses.recon_s": "s", "losses.proxy_s": "s",
    "autodiff.backward_s": "s", "autodiff.adam_s": "s", "autodiff.adam_steps": "count",
    "autodiff.tape_nodes": "count", "autodiff.tape_mb": "MB",
    "training.validate_s": "s", "training.self_s": "s",
    "metrics.score_s": "s", "rendering.render_s": "s",
    "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


class Tracer:
    """In-memory spans plus counters; one instance per traced pass."""

    def __init__(self):
        # [name, layer, start, end, parent index or None, stage-run id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.largest_tape_bytes = 0
        self.stage_names: list[str] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           len(self.stage_names) - 1])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][3] = time.perf_counter()

    def _wrap(self, name: str, layer: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:  # a call from the benchmark's own checks
                return fn(*args, **kwargs)
            index = self._begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                index = self._begin(name, COUNTING)
                try:
                    amounts = counter(result, args)
                    self.largest_tape_bytes = max(self.largest_tape_bytes,
                                                  amounts.pop("autodiff.tape_bytes", 0))
                    self.counts.update(amounts)
                finally:
                    self._end(index)
            return result

        return traced

    def install(self) -> None:
        """Patch every target where pgkrig code looks it up."""
        importlib.import_module("pgkrig.cli")  # loads every module that binds a target
        modules = [m for n, m in sys.modules.items()
                   if n == "pgkrig" or n.startswith("pgkrig.")]
        for module_name, attr, layer, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self._wrap(f"{module_name.split('.')[-1]}.{attr}", layer,
                                 original, counter)
            bindings = [(owner, leaf)] + [(m, k) for m in modules if m is not owner
                                          for k, v in vars(m).items() if v is original]
            for target, key in bindings:
                self._restore.append((target, key, original))
                setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def run_stage(self, name: str, fn, *args):
        """Call fn(*args) as a new stage run under a root span."""
        self.stage_names.append(name)
        index = self._begin(name, STAGE)
        try:
            return fn(*args)
        finally:
            self._end(index)


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _, _) in enumerate(spans)]


def _validation_time(spans: list[list]) -> float:
    """Wall time of the forwards inside `train` that no loss call follows before
    the next forward: the validation passes."""
    total, pending = 0.0, None

    def under_train(index):
        while index is not None:
            if spans[index][0] == "training.train":
                return True
            index = spans[index][4]
        return False

    def close():
        nonlocal total
        if pending is not None and under_train(pending):
            total += spans[pending][3] - spans[pending][2]

    for i, (name, layer, *_rest) in enumerate(spans):
        if layer == STAGE:
            close()
            pending = None
        elif name == "network.KrigingModel.full_forward" and layer != COUNTING:
            close()
            pending = i
        elif layer in ("losses.recon", "losses.proxy"):
            pending = None
    close()
    return total


def layer_metrics(tracer: Tracer, plain_walls: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics over every stage run, and a per-stage breakdown.

    `plain_walls` are the untraced in-process walls of the same stages, in
    order; they give the tracing overhead.
    """
    spans = tracer.spans
    own = _self_times(spans)
    by_layer = defaultdict(float)
    per_stage = [defaultdict(float) for _ in tracer.stage_names]
    for (_, layer, _, _, _, stage), seconds in zip(spans, own):
        by_layer[layer] += seconds
        per_stage[stage][layer] += seconds
    traced_walls = [s[3] - s[2] for s in spans if s[1] == STAGE]
    coverage = [sum(v for k, v in layers.items() if k not in (STAGE, COUNTING)) / wall
                for layers, wall in zip(per_stage, traced_walls)]

    calls = tracer.counts
    metrics = {f"{layer}_s": by_layer[layer] for _, _, layer, _ in TARGETS}
    metrics.update({
        "dataio.read_rows": calls["dataio.read_rows"],
        "dataio.write_rows": calls["dataio.write_rows"],
        "graphs.build_calls": sum(calls[f"graphs.{f}.calls"] for f in (
            "build_geo_adjacency", "build_diffusion_operator", "advection_sequence")),
        "graphs.advection_steps": calls["graphs.advection_steps"],
        "network.forward_calls": calls["network.KrigingModel.full_forward.calls"],
        "network.propagate_calls": calls["network.KrigingModel.propagate.calls"],
        "autodiff.adam_steps": calls["autodiff.Adam.step.calls"],
        "autodiff.tape_nodes": calls["autodiff.tape_nodes"],
        "autodiff.tape_mb": tracer.largest_tape_bytes / 2**20,
        "training.validate_s": _validation_time(spans),
        "trace.overhead_frac": sum(traced_walls) / sum(plain_walls) - 1.0,
        "trace.coverage_frac": min(coverage),
    })
    stages = [{"stage": name, "plain_wall_s": plain, "traced_wall_s": traced,
               "coverage_frac": cov,
               "self_s": {k: v for k, v in sorted(layers.items())}}
              for name, plain, traced, cov, layers in zip(
                  tracer.stage_names, plain_walls, traced_walls, coverage, per_stage)]
    return {name: metrics[name] for name in UNITS}, {"stages": stages,
                                                     "counts": dict(sorted(calls.items()))}
