"""Benchmark of the gsqg laboratory: one workload per run, timed end to end.

    python3 bench/run.py --workload branch --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory, nothing is installed.  The workload runs
in a fresh process; set-up time is measured on that process and on
SETUP_PROBES more that only set up.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
The full record, with provenance and every task's checks, goes to
`.bench_out/` at the root of the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2
RUN_LIMIT_S = 170.0   # the whole run, set-up probes included, ends before this


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker(args, env, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def margin_digits(rounds: list[dict]) -> float:
    """Smallest accuracy margin over the checks of a run.

    Each check of each kind of task (the task without its seeded inputs,
    such as the m = 4 branch leg or the Gateaux check) takes its median
    margin over the run; the smallest of these is the run's margin.
    """
    by_check: dict[tuple, list] = {}
    for r in rounds:
        for task in r["tasks"]:
            for check, value in task["margins"].items():
                by_check.setdefault((task["kind"], check), []).append(value)
    return min((statistics.median(v) for v in by_check.values()), default=0.0)


def end_to_end(record: dict) -> dict:
    """The end-to-end metrics as {name: (value, unit)}.

    Set-up, round and task times are rescaled to the reference speed (see
    worker.REF_PROBE_S); the raw times stay in the record.
    """
    rounds = record["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    verified = attempted - sum(r["failed"] for r in rounds)
    return {
        "setup_s": (statistics.median(s["setup_ref_s"] for s in record["setup_samples"]), "s"),
        "wall_ref_s": (statistics.median(r["wall_ref_s"] for r in rounds), "s"),
        "tasks_per_ref_s": (verified / sum(r["wall_ref_s"] for r in rounds), "1/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "tol_margin_digits": (margin_digits(rounds), "digits"),
        "pass_ratio": (verified / attempted, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("branch", "rigid", "linear"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "gsqg" / "__init__.py").is_file():
        print(f"no gsqg sources under {ROOT / 'src'}: run inside a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=nproc,
               OMP_NUM_THREADS=nproc, MKL_NUM_THREADS=nproc)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    try:
        setups = [worker(args, env, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        record = worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append({k: record[k] for k in ("setup_s", "setup_ref_s")})
    record["setup_samples"] = setups
    record["end_to_end"] = end_to_end(record)
    metrics = record["layers"] if args.trace else record["end_to_end"]
    rounds = record["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    record["fail_ratio"] = failed / attempted
    record["wall_s"] = statistics.median(r["wall_s"] for r in rounds)
    record["tasks_per_s"] = (attempted - failed) / sum(r["wall_s"] for r in rounds)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for r in rounds:
        for task in r["tasks"]:
            if not task["ok"]:
                print(f"FAILED {task['name']} [{task['layer']}]: {task['detail']}")
    print("provenance", json.dumps(record["provenance"]))
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), {attempted} tasks, "
          f"fail_ratio={record['fail_ratio']:.4g}, raw wall_s={record['wall_s']:.4g}, "
          f"raw tasks_per_s={record['tasks_per_s']:.4g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
