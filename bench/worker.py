"""Run one benchmark workload in this process and print its measurements.

Started by bench/run.py, once per workload run, plus a few `--setup-only`
starts that measure set-up time.  The last line of standard output is one
JSON object with the raw measurements; run.py turns it into metrics.

Untraced (`--trace 0`): whole rounds run while they fit in `--seconds`,
always at least one, with the speed sampler on.  Traced (`--trace 1`):
round 0 runs once untraced and once traced, both without speed samples, so
the traced counters repeat exactly at one seed, span times are not
stretched by probes, and the tracing overhead is the difference of the two
raw wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np  # set-up covers importing numpy, scipy and gsqg
import scipy

import tracing
from workloads import Outcome, make_rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_ROUNDS = 64
HELD_OUT_SEED = 20261017

# A shared virtual machine can drift in speed by up to 2x within minutes: on
# 2 cores one `gsqg scan` took 0.54 s in one run and 1.18 s in another.  A
# fixed computation shaped like the package's hot loops (row FFTs, powers,
# complex exponentials, a mat-vec) is timed every PROBE_INTERVAL_S while the
# tasks run, and right after set-up; task and set-up times are rescaled to
# the speed at which it takes REF_PROBE_S.
REF_PROBE_S = 0.01
PROBE_INTERVAL_S = 0.5
_PROBE_RNG = np.random.default_rng(0)
_PROBE_A = _PROBE_RNG.standard_normal((256, 256)) + 1j * _PROBE_RNG.standard_normal((256, 256))
_PROBE_V = _PROBE_RNG.standard_normal(256)


def monotonic() -> float:
    """CLOCK_MONOTONIC, comparable between processes on one host."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class TaskResult:
    name: str
    kind: str
    ok: bool
    margins: dict
    detail: str
    layer: str | None   # layer charged with the failure, None when verified
    wall_s: float
    ref_scale: float = 1.0  # REF_PROBE_S over the probe time during this task


def reference_probe() -> float:
    """Seconds taken by the fixed reference computation, right now."""
    t0 = time.perf_counter()
    for _ in range(2):
        mag = np.abs(np.fft.fft(_PROBE_A, axis=1)) ** 0.5
        (mag @ _PROBE_V).sum() + np.exp(1j * mag).sum()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times `reference_probe` every PROBE_INTERVAL_S from a SIGALRM handler.

    Python runs the handler in the main thread between bytecodes, so the
    probe samples the speed of the CPU the tasks run on, during the tasks.
    """

    def __init__(self):
        self.samples = [reference_probe()]

    def _handler(self, signum, frame):
        self.samples.append(reference_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def run_task(task, index: int, out: Path, tracer=None) -> TaskResult:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = task.run(out)
        else:
            tracer.task = index
            with tracer.span(task.name, "bench"):
                outcome = task.run(out)
    except Exception as exc:  # a crashing task is a failed task; the run carries on
        outcome = Outcome(False, {}, f"{type(exc).__name__}: {exc}")
    layer = None
    if not outcome.ok:
        raised = tracer.failing_layer(index) if tracer is not None else None
        layer = raised if raised in tracing.ERROR_LAYERS else task.layer
    return TaskResult(task.name, task.kind, outcome.ok, outcome.margins, outcome.detail,
                      layer, time.perf_counter() - t0)


def run_round(tasks, out: Path, tracer=None, sampler: SpeedSampler | None = None) -> dict:
    results = []
    for i, task in enumerate(tasks):
        first = len(sampler.samples) if sampler else 0
        result = run_task(task, i, out, tracer)
        if sampler:
            during = sampler.samples[first:]
            result.wall_s -= sum(during)
            # a task shorter than the interval takes the last sample before it
            speed = during or sampler.samples[first - 1:first]
            result.ref_scale = REF_PROBE_S / statistics.mean(speed)
        results.append(result)
    return {"wall_s": sum(r.wall_s for r in results),
            "wall_ref_s": sum(r.wall_s * r.ref_scale for r in results),
            "attempted": len(results),
            "failed": sum(not r.ok for r in results),
            "tasks": [r.__dict__ for r in results]}


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gsqg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "held_out_seed": HELD_OUT_SEED}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import gsqg
    if not Path(gsqg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gsqg imported from {gsqg.__file__}, not from {SRC}")
    rounds = make_rounds(args.workload, args.seed, MAX_ROUNDS)
    setup_s = monotonic() - args.spawned_at
    probe_s = statistics.median(reference_probe() for _ in range(5))
    setup = {"setup_s": setup_s, "setup_ref_s": setup_s * REF_PROBE_S / probe_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    out = args.out_dir / "gsqg-out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    result = {**setup, "provenance": provenance(args.seed)}
    if args.trace:
        untraced = run_round(rounds[0], out)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_round(rounds[0], out, tracer)
        finally:
            tracer.uninstall()
        errors = Counter(t["layer"] for t in traced["tasks"] if t["layer"])
        layers = tracing.layer_metrics(tracer.spans, errors)
        layers["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        layers["trace.spans"] = (len(tracer.spans), "count")
        spans_path = args.out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result.update(rounds=[untraced, traced], layers=layers, spans=str(spans_path))
    else:
        done = []
        start = time.perf_counter()
        with SpeedSampler() as sampler:
            for tasks in rounds:
                if done and (time.perf_counter() - start
                             + statistics.median(r["wall_s"] for r in done)) > args.seconds:
                    break
                done.append(run_round(tasks, out, sampler=sampler))
        result["rounds"] = done
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
