"""Spans around the public functions of every gsqg module, recorded from outside.

`Tracer.install()` replaces each public function of a gsqg module with a
wrapper, at every module attribute through which the package reaches it:
the defining module itself (for calls inside the module, such as
`kernels.functional_G` calling `s_phi`) and every module that imported it by
name (such as `continuation.functional_G` or `cli.solve_vstate`).  Nothing
under `src/` is edited; `uninstall()` puts the originals back.

Spans stay in memory while the benchmark runs and are written once at the
end.  Each span has a name, start, end, parent span and task id.  The layer
of a span is the gsqg module that defines the function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("specfun", "geometry", "kernels", "linearization", "continuation",
          "evolution", "oracles", "output", "cli")

# grid sizes at which the three workloads call the kernels layer
KERNEL_GRIDS = (64, 80, 96, 256, 272, 512, 768, 1024)

# errors are attributed to the layer that raised, or to the task's owner
ERROR_LAYERS = ("kernels", "continuation", "linearization", "evolution")

# span record fields
NAME, LAYER, START, END, PARENT, TASK, ERROR, SIZE = range(8)


def _size(layer: str, out, args) -> int:
    """Work size of one call: grid points, contour nodes or bytes written."""
    if layer == "kernels":
        grid = getattr(out, "grid", None)
        if grid is not None:
            return grid.size
        return len(out) if isinstance(out, np.ndarray) else 0
    if layer == "evolution" and args and hasattr(args[0], "nodes"):
        return len(args[0].nodes)
    if layer == "output" and isinstance(out, Path):
        return out.stat().st_size
    return 0


class Tracer:
    """In-memory span recorder that wraps gsqg's public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.task: int = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, around one of its tasks."""
        rec = self._open(name, layer)
        try:
            yield rec
        except BaseException as exc:
            self._close(rec, exc)
            raise
        self._close(rec, None)

    def _open(self, name: str, layer: str) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.task, None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list, exc: BaseException | None) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            rec[ERROR] = type(exc).__name__

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec, exc)
                raise
            tracer._close(rec, None)
            rec[SIZE] = _size(layer, out, args)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("gsqg")]
        modules += [importlib.import_module(f"gsqg.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                row = {"id": i, "name": rec[NAME], "start": rec[START] - t0,
                       "end": rec[END] - t0, "parent": rec[PARENT],
                       "task": rec[TASK]}
                if rec[ERROR]:
                    row["error"] = rec[ERROR]
                fh.write(json.dumps(row) + "\n")

    def failing_layer(self, task: int) -> str | None:
        """Layer of the first gsqg span of a task that ended in an exception."""
        raised = [rec for rec in self.spans
                  if rec[TASK] == task and rec[ERROR] and rec[LAYER] in LAYERS]
        if not raised:
            return None
        return min(raised, key=lambda rec: rec[END])[LAYER]


def layer_metrics(spans: list[list], errors: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as {name: (value, unit)}.

    Self time of a span is its duration minus the durations of its direct
    children, so nested spans of one layer are counted once.  `calls` of a
    layer counts entries into it from another layer or from the benchmark.
    """
    n = len(spans)
    child = np.zeros(n)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    in_solve = [False] * n
    in_lin = [False] * n
    grid_time = defaultdict(float)
    grid_calls = defaultdict(int)
    solve_evals = lin_evals = 0
    kern_pairs = 0
    kern_time = 0.0
    bytes_written = 0
    counts = defaultdict(int)
    times = defaultdict(float)
    pairs = defaultdict(int)
    for i, rec in enumerate(spans):
        name, layer, parent = rec[NAME], rec[LAYER], rec[PARENT]
        dur = rec[END] - rec[START]
        self_s[layer] += dur - child[i]
        up = spans[parent] if parent >= 0 else None
        in_solve[i] = name == "continuation.solve_vstate" or (up is not None and in_solve[parent])
        in_lin[i] = layer == "linearization" or (up is not None and in_lin[parent])
        counts[name] += 1
        times[name] += dur
        pairs[name] += rec[SIZE] ** 2
        if up is not None and up[LAYER] == layer:
            continue
        calls[layer] += 1
        if layer == "output":
            bytes_written += rec[SIZE]
        if layer == "kernels":
            solve_evals += in_solve[i]
            lin_evals += in_lin[i]
            if rec[SIZE]:
                grid_time[rec[SIZE]] += dur
                grid_calls[rec[SIZE]] += 1
                kern_pairs += rec[SIZE] ** 2
                kern_time += dur

    def per(num, den):
        return num / den if den else 0.0

    solves = counts["continuation.solve_vstate"]
    vel = "evolution.velocity_contour"
    out = {
        "kernels.calls": (calls["kernels"], "count"),
        "kernels.self_s": (self_s["kernels"], "s"),
    }
    for g in KERNEL_GRIDS:
        out[f"kernels.ms_per_call.g{g}"] = (1e3 * per(grid_time[g], grid_calls[g]), "ms")
    out.update({
        "kernels.grid_pairs": (kern_pairs, "count"),
        "kernels.grid_pairs_per_s": (per(kern_pairs, kern_time), "1/s"),
        "kernels.errors": (errors.get("kernels", 0), "count"),
        "continuation.solves": (solves, "count"),
        "continuation.residual_evals_per_solve": (per(solve_evals, solves), "count"),
        "continuation.s_per_solve": (per(times["continuation.solve_vstate"], solves), "s"),
        "continuation.self_s": (self_s["continuation"], "s"),
        "continuation.errors": (errors.get("continuation", 0), "count"),
        "linearization.fd_columns": (counts["linearization.fd_column"], "count"),
        "linearization.residual_evals": (lin_evals, "count"),
        "linearization.self_s": (self_s["linearization"], "s"),
        "linearization.errors": (errors.get("linearization", 0), "count"),
        "evolution.rk4_steps": (counts["evolution.step_rk4"], "count"),
        "evolution.velocity_calls": (counts[vel], "count"),
        "evolution.velocity_ms_per_call": (1e3 * per(times[vel], counts[vel]), "ms"),
        "evolution.node_pairs_per_s": (per(pairs[vel], times[vel]), "1/s"),
        "evolution.redistributes": (counts["evolution.redistribute"], "count"),
        "evolution.hausdorff_s": (times["evolution.hausdorff_distance"], "s"),
        "evolution.self_s": (self_s["evolution"], "s"),
        "evolution.errors": (errors.get("evolution", 0), "count"),
        "specfun.calls": (calls["specfun"], "count"),
        "specfun.self_s": (self_s["specfun"], "s"),
        "oracles.calls": (calls["oracles"], "count"),
        "oracles.self_s": (self_s["oracles"], "s"),
        "geometry.calls": (calls["geometry"], "count"),
        "geometry.self_s": (self_s["geometry"], "s"),
        "output.self_s": (self_s["output"], "s"),
        "output.bytes_written": (bytes_written, "bytes"),
        "cli.self_s": (self_s["cli"], "s"),
    })
    return out
