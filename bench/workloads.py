"""The three benchmark workloads: seeded inputs, tasks and correctness gates.

Each workload is a list of rounds; a round is one pass over the workload's
task list with inputs drawn from the seed.  Every task goes through the
package's public entry points, mostly `gsqg.cli.main` in-process, and counts
as verified only when its exit code is 0 and its report clears the
acceptance-gate tolerances of `tests/test_acceptance.py`.

The seed draws alpha and the random boundaries of the Gateaux check.  The
symmetry order m, the amplitudes, grid sizes and node counts are fixed,
because they decide which layer does the work (see bench/README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# acceptance-gate tolerances (tests/test_acceptance.py)
TOL_EXTRAPOLATION = 1e-6
TOL_SCAN_GAP = 1e-7
TOL_HAUSDORFF = 1e-3
TOL_DRIFT = 1e-5
TOL_GATEAUX = 1e-6
TOL_MOMENTS = 1e-8


@dataclass
class Outcome:
    """What a task's correctness gate found.

    `margins` maps each check against an independent reference to
    log10(tolerance / error); solver stopping tests are not margins.
    """

    ok: bool
    margins: dict[str, float] = field(default_factory=dict)
    detail: str = ""


@dataclass(frozen=True)
class Task:
    name: str
    kind: str                        # the task without its seeded inputs
    layer: str                       # layer charged when the gate fails
    run: Callable[[Path], Outcome]   # argument: the CLI output directory


def margin(tol: float, err: float) -> float:
    return math.log10(tol / max(abs(err), 1e-300))


def checked(margins: dict[str, tuple[float, float]], *flags: bool, detail: str = "") -> Outcome:
    """Outcome of named (error, tolerance) checks plus exact conditions."""
    ok = all(flags) and all(err < tol for err, tol in margins.values())
    text = " ".join(f"{k}={err:.3e}" for k, (err, _) in margins.items())
    return Outcome(ok, {k: margin(tol, err) for k, (err, tol) in margins.items()},
                   f"{text} {detail}".strip())


def _cli(out: Path, *argv) -> int:
    import gsqg.cli
    with contextlib.redirect_stdout(io.StringIO()):
        return gsqg.cli.main(["--output-dir", str(out), *map(str, argv)])


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _fresh(path: Path) -> Path:
    path.unlink(missing_ok=True)
    return path


# ---------------------------------------------------------------------------
# tasks


def branch_leg(alpha: float, m: int, s_max: float, ds: float, points: int,
               extrapolate: bool) -> Task:
    """`gsqg solve-branch`; small-step legs also extrapolate to the closed form."""
    def run(out: Path) -> Outcome:
        path = _fresh(out / f"branch_a{alpha:g}_m{m}.json")
        rc = _cli(out, "solve-branch", "--alpha", alpha, "--m", m,
                  "--s-max", s_max, "--ds", ds)
        rep = _report(path)
        flags = (rc == 0, rep["failure"] is None, len(rep["s"]) == points)
        if not extrapolate:
            return checked({}, *flags, detail=f"rc={rc} points={len(rep['s'])}")
        import gsqg.specfun
        (s1, s2), (o1, o2) = rep["s"][:2], rep["omega"][:2]
        omega0 = (s2 ** 2 * o1 - s1 ** 2 * o2) / (s2 ** 2 - s1 ** 2)
        gap = abs(omega0 - gsqg.specfun.omega_dispersion(alpha, m))
        return checked({"extrapolation_gap": (gap, TOL_EXTRAPOLATION)}, *flags,
                       detail=f"rc={rc}")
    kind = f"solve-branch m={m} s<={s_max:g} ds={ds:g}"
    return Task(f"{kind} a={alpha:g}", kind, "continuation", run)


def rigid_check(alpha: float, kernel: str, m: int = 3, s: float = 0.03,
                nodes: int = 512) -> Task:
    """`gsqg rigid-check`: quarter-period contour dynamics against a rigid rotation."""
    def run(out: Path) -> Outcome:
        path = _fresh(out / f"rigid_m{m}.json")
        rc = _cli(out, "rigid-check", "--alpha", alpha, "--m", m, "--s", s,
                  "--nodes", nodes)
        rep = _report(path)
        return checked({"hausdorff": (rep["hausdorff"], TOL_HAUSDORFF),
                        "area_drift": (rep["area_drift"], TOL_DRIFT),
                        "centroid_drift": (rep["centroid_drift"], TOL_DRIFT)},
                       rc == 0, detail=f"rc={rc} steps={rep['steps']}")
    kind = f"rigid-check {kernel} m={m} nodes={nodes}"
    return Task(f"{kind} a={alpha:g}", kind, "evolution", run)


def scan(alpha: float, m: int) -> Task:
    """`gsqg scan`: bisection onto the closed-form bifurcation point."""
    def run(out: Path) -> Outcome:
        path = _fresh(out / f"scan_m{m}.json")
        rc = _cli(out, "scan", "--alpha", alpha, "--m", m)
        rep = _report(path)
        return checked({"gap": (rep["gap"], TOL_SCAN_GAP)}, rc == 0,
                       rep["kernel_dimension"] == 1, rep["transversal"] is True,
                       detail=f"rc={rc} kernel_dim={rep['kernel_dimension']}")
    kind = f"scan m={m}" + (" a=1" if alpha == 1.0 else "")
    return Task(f"scan m={m} a={alpha:g}", kind, "linearization", run)


def verify_integrals(alpha: float, n_max: int = 16) -> Task:
    """`gsqg verify-integrals`: closed-form moments against adaptive quadrature."""
    def run(out: Path) -> Outcome:
        path = _fresh(out / "verify_integrals.json")
        rc = _cli(out, "verify-integrals", "--alpha", alpha, "--n-max", n_max)
        worst = max(_report(path)["max_relative_error"].values())
        return checked({"moments": (worst, TOL_MOMENTS)}, rc == 0, detail=f"rc={rc}")
    return Task(f"verify-integrals a={alpha:g}", "verify-integrals", "kernels", run)


def gateaux(alpha: float, coeffs: np.ndarray, mode: int, omega: float = 0.25,
            eps: float = 1e-6, grid_size: int = 256) -> Task:
    """`gateaux_derivative` against central differences of `functional_G`."""
    def run(out: Path) -> Outcome:
        import gsqg.geometry
        import gsqg.kernels
        import gsqg.linearization
        bnd, grid = gsqg.geometry.FourierBoundary, gsqg.geometry.UnitGrid(grid_size)
        hdir = np.zeros(mode + 1)
        hdir[mode] = 1.0
        fld = gsqg.linearization.gateaux_derivative(bnd(coeffs), bnd(hdir), omega,
                                                    alpha, grid)
        up, dn = coeffs.copy(), coeffs.copy()
        up[mode] += eps
        dn[mode] -= eps
        fd = (gsqg.kernels.functional_G(omega, bnd(up), alpha, grid).sine_coeffs
              - gsqg.kernels.functional_G(omega, bnd(dn), alpha, grid).sine_coeffs) / (2 * eps)
        scale = max(np.max(np.abs(fd[:16])), 1e-12)
        mismatch = float(np.max(np.abs(fld.sine_coeffs[:16] - fd[:16])) / scale)
        return checked({"gateaux_mismatch": (mismatch, TOL_GATEAUX)})
    return Task(f"gateaux mode={mode} a={alpha:g}", "gateaux", "linearization", run)


# ---------------------------------------------------------------------------
# rounds


def _alpha(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 4)


def branch_round(rng: np.random.Generator) -> list[Task]:
    """Small-step legs for m = 2, 3, 4 (grids 512, 768, 1024), one large-step leg."""
    legs = [branch_leg(_alpha(rng, 0.45, 0.55), m, 0.03, 0.01, 3, True) for m in (2, 3, 4)]
    legs.append(branch_leg(_alpha(rng, 0.45, 0.55), 3, 0.2, 0.05, 4, False))
    return legs


def rigid_round(rng: np.random.Generator) -> list[Task]:
    """One plain-kernel and one tangentially subtracted check at 512 nodes."""
    return [rigid_check(_alpha(rng, 0.3, 0.4), "plain"),
            rigid_check(_alpha(rng, 0.95, 0.99), "subtracted")]


def linear_round(rng: np.random.Generator) -> list[Task]:
    """Scans m = 2..5 and at alpha = 1, moment identities, Gateaux checks at grid 256."""
    alpha = _alpha(rng, 0.3, 0.7)
    tasks = [scan(alpha, m) for m in (2, 3, 4, 5)]
    tasks.append(scan(1.0, 3))
    tasks.append(verify_integrals(alpha))
    for _ in range(3):
        coeffs = rng.uniform(-1.0, 1.0, 6)
        coeffs *= 0.05 / max(1.0, np.abs(coeffs).sum())
        tasks.append(gateaux(alpha, coeffs, int(rng.integers(0, 5))))
    return tasks


WORKLOADS = {"branch": branch_round, "rigid": rigid_round, "linear": linear_round}


def make_rounds(workload: str, seed: int, n_rounds: int) -> list[list[Task]]:
    """The seeded inputs of a workload: the same seed gives the same rounds."""
    rng = np.random.default_rng(seed)
    return [WORKLOADS[workload](rng) for _ in range(n_rounds)]
