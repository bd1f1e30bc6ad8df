"""Command-line drivers for every workflow in the package.

Exit codes follow one contract everywhere: 0 all embedded checks passed,
1 a numerical check failed or the numerics raised one of the package's
typed failures, 2 an invalid command line, 3 any other exception (a bug;
traceback on stderr).  A command ends in one stdout line, OK or FAIL, that
names each checked value, and on FAIL each exact condition that does not
hold; a non-finite value fails before any file is written.
The parser alone decides what a valid command line is: each flag carries its
argument's domain, and a value outside it, an unknown flag or a missing
argument prints one `CONFIG ...` line on stderr and exits 2 before any
numerics run.  Output files are deterministic; re-running a command with the
same arguments reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import traceback
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import oracles
from .continuation import (FoldError, NonConvergenceError, continue_branch,
                           solve_vstate)
from .evolution import (ContourError, ContourState, _steps, conserved_diagnostics,
                        evolve, hausdorff_distance, normal_step_bounds,
                        normal_velocity_residual, redistribute)
from .geometry import FourierBoundary, UnitGrid, eval_map
from .kernels import (SelfIntersectionError, ellipse_moment_ratio, functional_G,
                      singular_moment_I, singular_moment_J, singular_moment_Z,
                      sqg_moment_1, sqg_moment_2)
from .linearization import (_DISC_MODES, BracketError, bifurcation_scan, disc_jacobian,
                            kernel_diagnostics, multiplier_at_disc)
from .output import (write_csv, write_curves_svg, write_json, write_jsonl,
                     write_residual_csv, write_residual_json, write_xy_svg)
from .specfun import (DispersionTable, GammaPoleError, omega_asymptotic,
                      omega_dispersion, theta_alpha)

ENV_OUTPUT_DIR = "GSQG_OUTPUT_DIR"

# the package's typed numerical failures; these map to exit code 1
NUMERICAL_ERRORS = (NonConvergenceError, FoldError, SelfIntersectionError,
                    ContourError, BracketError, GammaPoleError)


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


def _outdir(args) -> Path:
    root = args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or "gsqg-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fail(reason: str) -> int:
    print(f"FAIL {reason}")
    return 1


class _NonFinite(ArithmeticError):
    """A checked value is NaN or infinite: it passes no comparison and JSON cannot hold it."""


def _finite(checks: dict[str, tuple[float, float]]) -> dict[str, tuple[float, float]]:
    """checks, once every value in it is finite; called before any file is written."""
    for name, (value, _) in checks.items():
        if not math.isfinite(value):
            raise _NonFinite(name)
    return checks


def _verdict(path: Path, report: dict, checks: dict[str, tuple[float, float]],
             **conditions: bool) -> int:
    """The one gate: write report to path and print one line naming every check's value.

    checks maps a name to (value, tolerance); the command passes when every
    value is below its tolerance and every named exact condition holds.  A
    FAIL line also names each condition that does not hold, as name=False.
    """
    _finite(checks)
    write_json(path, report)
    values = "".join(f"{name}={value:.3e} " for name, (value, _) in checks.items())
    broken = "".join(f"{name}=False " for name, holds in conditions.items() if not holds)
    if not broken and all(value < tol for value, tol in checks.values()):
        print(f"OK {values}wrote {path}")
        return 0
    return _fail(f"{values}{broken}report={path}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_dispersion(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    inner = 0.0 < alpha < 1.0
    theta = theta_alpha(alpha) if inner else None
    rows = []
    for m, om in DispersionTable.build(alpha, args.m_max).values.items():
        asym = omega_asymptotic(alpha, m) if inner else None
        rows.append({"m": m, "omega": om, "theta_gap": theta - om if inner else None,
                     "asymptotic": asym, "asymptotic_error": abs(asym - om) if inner else None})
    write_csv(out / "dispersion.csv", list(rows[0]), [list(r.values()) for r in rows])
    return _verdict(out / "dispersion.json", {"alpha": alpha, "theta": theta, "rows": rows}, {})


def cmd_verify_integrals(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    # each family: closed form (all orders off one ladder), oracle, first
    # order, and the floor of the scale its error is relative to
    families = {
        "I": (partial(singular_moment_I, alpha), partial(oracles.moment_I_quad, alpha), 0, 0.0),
        "J": (partial(singular_moment_J, alpha), partial(oracles.moment_J_quad, alpha), 0, 1.0),
        "Z": (partial(singular_moment_Z, alpha), partial(oracles.moment_Z_quad, alpha), 0, 1.0),
        "sqg1": (sqg_moment_1, oracles.sqg_moment_1_quad, 1, 0.0),
        "sqg2": (sqg_moment_2, oracles.sqg_moment_2_quad, 1, 0.0)}
    worst = {}
    for name, (closed, oracle, first, floor) in families.items():
        orders = np.arange(first, args.n_max + 1)
        refs = np.array([oracle(n) for n in orders.tolist()])
        # np.max, not max: Python's max keeps the running value past a NaN
        worst[name] = float(np.max(np.abs(closed(orders) - refs) / np.maximum(np.abs(refs), floor)))
    return _verdict(out / "verify_integrals.json",
                    {"alpha": alpha, "n_max": args.n_max, "tolerance": 1e-8,
                     "max_relative_error": worst},
                    {name: (err, 1e-8) for name, err in worst.items()})


def cmd_linearize(args) -> int:
    # an omega near the float range overflows and the gap reads inf - inf; np.max keeps
    # the NaN for the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        mult = multiplier_at_disc(args.alpha, args.omega, args.n_modes)
        diag = np.diag(disc_jacobian(args.alpha, args.omega, args.n_modes))
        agreement = float(np.max(np.abs(diag - mult[:args.n_modes])))
    checks = _finite({"max_diagonal_gap": (agreement, 1e-7)})
    out = _outdir(args)
    write_csv(out / "multipliers.csv", ["n", "multiplier"],
              [[n, mult[n]] for n in range(args.n_modes)])
    return _verdict(out / "linearize.json",
                    {"alpha": args.alpha, "omega": args.omega, "n_modes": args.n_modes,
                     "jacobian_diagonal": diag, "max_diagonal_gap": agreement,
                     "tolerance": 1e-7}, checks)


def cmd_scan(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    closed = omega_dispersion(alpha, args.m)
    # the root is bracketed within 0.05 of the closed form and must land within 1e-7
    located = bifurcation_scan(alpha, args.m, (closed - 0.05, closed + 0.05))
    diag = kernel_diagnostics(alpha, args.m, located)
    gap = abs(located - closed)
    report = {"alpha": alpha, "m": args.m, "omega_located": located,
              "omega_closed_form": closed, "gap": gap, "kernel_dimension": diag["n_small"],
              "kernel_mass_on_mode": diag["kernel_mass"], "transversal": diag["transversal"]}
    return _verdict(out / f"scan_m{args.m}.json", report, {"gap": (gap, 1e-7)},
                    simple_kernel=diag["n_small"] == 1, transversal=diag["transversal"])


def cmd_solve_branch(args) -> int:
    if args.s_max < args.ds:
        raise ConfigError(f"ds = {args.ds} exceeds s-max = {args.s_max}")
    out = _outdir(args)
    table = continue_branch(args.alpha, args.m, args.s_max, args.ds)
    sols = table.solutions
    stem = f"branch_a{args.alpha:g}_m{args.m}"
    write_csv(out / f"{stem}.csv", ["s", "omega", "residual", "a1", "a2", "a3"],
              [[sol.s, sol.omega, sol.residual_norm, *sol.boundary.reduced[:3]]
               for sol in sols])
    if sols:
        grid = UnitGrid(512)
        curves = [eval_map(sol.full_boundary, grid) for sol in sols]
        write_curves_svg(out / f"{stem}_boundaries.svg", curves,
                         [f"s={sol.s:g}" for sol in sols])
        write_xy_svg(out / f"{stem}_diagram.svg", table.amplitudes, table.omegas,
                     "s", "omega")
    report = {"alpha": args.alpha, "m": args.m, "s": [sol.s for sol in sols],
              "omega": [sol.omega for sol in sols],
              "residual": [sol.residual_norm for sol in sols],
              "residual_evals": [sol.residual_evals for sol in sols],
              "jacobian_builds": [sol.jacobian_builds for sol in sols],
              "reduced": [sol.boundary.reduced for sol in sols],
              "failure": table.failure}
    if table.failure is not None:
        write_json(out / f"{stem}.json", report)
        return _fail(f"branch stopped: {table.failure}")
    # ds <= s-max, so without a failure the point at s = ds was kept
    return _verdict(out / f"{stem}.json", report, {"residual": (max(report["residual"]), 1e-11)})


def cmd_ellipse_test(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    ratio = ellipse_moment_ratio(alpha)
    ratio_quad = oracles.moment_I_quad(alpha, 2) / oracles.moment_I_quad(alpha, 0)
    ratio_gap = abs(ratio - ratio_quad)
    checks = _finite({"moment_ratio_gap": (ratio_gap, 1e-10)})
    # g4 does not depend on omega: omega enters G through mode 2 only
    field = functional_G(0.0, FourierBoundary.ellipse(args.q), alpha, UnitGrid(256))
    min_g4 = abs(field.sine_coeff(4))
    write_residual_csv(out / "ellipse_residual.csv", field)
    write_residual_json(out / "ellipse_residual.json", field)
    report = {"alpha": alpha, "Q": args.q, "min_abs_g4": min_g4,
              "moment_ratio": ratio, "moment_ratio_quadrature": ratio_quad,
              "moment_ratio_gap": ratio_gap}
    return _verdict(out / "ellipse_test.json", report, checks, nonzero_g4=min_g4 > 0.0)


def _initial_contour(args) -> ContourState:
    if args.shape == "disc":
        return ContourState.disc(args.nodes, args.alpha)
    if args.shape == "ellipse":
        boundary = FourierBoundary.ellipse(args.q)
    else:
        boundary = solve_vstate(args.alpha, args.m, args.s).full_boundary
    return ContourState.from_boundary(boundary, args.nodes, args.alpha)


def _march(start: ContourState, horizon: float, chunks: int,
           cap: float = math.inf) -> tuple[list[ContourState], dict]:
    """The frames of start marched over horizon in equal chunks, and the step record.

    The one step plan of `evolve` and `rigid-check`: the fewest equal steps
    no longer than the smallest of cap, dt_stability and dt_guard at the start.
    """
    dt_stability, dt_guard = normal_step_bounds(start)
    chunk = horizon / chunks
    n_steps, dt = _steps(chunk, min(cap, dt_stability, dt_guard))
    frames = [start]
    for _ in range(chunks):
        frames.append(evolve(frames[-1], chunk, dt))
    return frames, {"steps": chunks * n_steps, "dt": dt,
                    "dt_stability": dt_stability, "dt_guard": dt_guard}


def _drifts(start: ContourState, end: ContourState) -> dict[str, tuple[float, float]]:
    """The checks of relative area drift and absolute centroid drift from start to end."""
    area0, cent0 = conserved_diagnostics(start)
    area1, cent1 = conserved_diagnostics(end)
    return {"area_drift": (abs(area1 - area0) / abs(area0), 1e-5),
            "centroid_drift": (abs(cent1 - cent0), 1e-5)}


def cmd_evolve(args) -> int:
    out = _outdir(args)
    # --dt caps the step; the stability rule and the guard may take it lower
    frames, plan = _march(_initial_contour(args), args.t_final, args.frames - 1, args.dt)
    checks = _finite(_drifts(frames[0], frames[-1]))
    write_jsonl(out / "trajectory.jsonl",
                [{"time": st.time, "alpha": st.alpha,
                  "nodes_re": st.nodes.real, "nodes_im": st.nodes.imag} for st in frames])
    write_curves_svg(out / "evolution.svg", [st.nodes for st in frames],
                     [f"t={st.time:.3f}" for st in frames])
    return _verdict(out / "evolve_report.json",
                    {"alpha": args.alpha, "t_final": args.t_final, "nodes": args.nodes,
                     **plan, **{name: value for name, (value, _) in checks.items()},
                     "tolerance": 1e-5}, checks)


def cmd_rigid_check(args) -> int:
    out = _outdir(args)
    sol = solve_vstate(args.alpha, args.m, args.s)
    state0 = ContourState.from_boundary(sol.full_boundary, args.nodes, args.alpha)
    t_quarter = np.pi / (2.0 * sol.omega)
    # normal-velocity stepping from equal arclength
    (_, state1), plan = _march(redistribute(state0), t_quarter, 1)
    rotated = np.exp(1j * sol.omega * t_quarter) * state0.nodes
    checks = _finite({"hausdorff": (hausdorff_distance(state1.nodes, rotated), 1e-3),
                      **_drifts(state0, state1)})
    write_curves_svg(out / f"rigid_m{args.m}.svg", [rotated, state1.nodes],
                     ["rotated initial", "evolved"])
    # the step record's keys keep their place around quarter_period
    report = {"alpha": args.alpha, "m": args.m, "s": args.s, "omega": sol.omega,
              "nodes": args.nodes, "steps": plan.pop("steps"),
              "quarter_period": t_quarter, **plan,
              "normal_velocity_residual": normal_velocity_residual(state0, sol.omega),
              **{name: value for name, (value, _) in checks.items()}}
    return _verdict(out / f"rigid_m{args.m}.json", report, checks)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """A parser whose every error is a ConfigError, so `main` reports it as one CONFIG line.

    Flags are matched whole: `--m` must not pass for `--m-max`, nor `--s` for `--s-max`.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _domain(convert, inside, domain: str):
    """A `type=` converter: the value convert reads off the text, if inside holds for it."""
    def read(text: str):
        try:
            value = convert(text)
            if inside(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {domain}")
    return read


# the argument domains: NaN fails every comparison, and no float bound admits an infinity
_FINITE = _domain(float, math.isfinite, "a finite number")
_POSITIVE = _domain(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_OPEN_UNIT = _domain(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_ALPHA = _domain(float, lambda a: 0.0 < a <= 1.0, "in (0, 1]")
_CLOSED_UNIT = _domain(float, lambda a: 0.0 <= a <= 1.0, "in [0, 1]")
_TWO_OR_MORE = _domain(int, lambda n: n >= 2, "an integer >= 2")
_NODES = _domain(int, lambda n: n >= 8 and n % 2 == 0, "an even integer >= 8")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsqg",
        description="Rotating-patch laboratory for the generalized SQG equation")
    parser.add_argument("--output-dir", default=None,
                        help=f"output directory (default ${ENV_OUTPUT_DIR} or ./gsqg-out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="tabulate bifurcation angular velocities")
    p.add_argument("--alpha", type=_CLOSED_UNIT, required=True)
    p.add_argument("--m-max", type=_TWO_OR_MORE, default=10)
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("verify-integrals", help="closed-form moments vs quadrature")
    p.add_argument("--alpha", type=_OPEN_UNIT, required=True)
    p.add_argument("--n-max", type=_domain(int, lambda n: n >= 1, "a positive integer"),
                   default=16)
    p.set_defaults(fn=cmd_verify_integrals)

    p = sub.add_parser("linearize", help="disc multipliers vs assembled Jacobian")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--omega", type=_FINITE, default=0.0)
    p.add_argument("--n-modes", type=_TWO_OR_MORE, default=_DISC_MODES)
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("scan", help="locate a bifurcation point spectrally")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--m", type=_TWO_OR_MORE, required=True)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("solve-branch", help="continue an m-fold branch in amplitude")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--m", type=_TWO_OR_MORE, required=True)
    p.add_argument("--s-max", type=_POSITIVE, required=True)
    p.add_argument("--ds", type=_POSITIVE, required=True)
    p.set_defaults(fn=cmd_solve_branch)

    p = sub.add_parser("ellipse-test", help="ellipses never rotate: mode-4 obstruction")
    p.add_argument("--alpha", type=_OPEN_UNIT, required=True)
    p.add_argument("--Q", dest="q", type=_OPEN_UNIT, required=True)
    p.set_defaults(fn=cmd_ellipse_test)

    p = sub.add_parser("evolve", help="contour-dynamics time integration")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--shape", choices=("disc", "ellipse", "vstate"), default="disc")
    p.add_argument("--q", type=_OPEN_UNIT, default=0.3)
    p.add_argument("--m", type=_TWO_OR_MORE, default=3)
    p.add_argument("--s", type=_FINITE, default=0.03)
    p.add_argument("--t-final", type=_POSITIVE, required=True)
    p.add_argument("--dt", type=_POSITIVE, required=True)
    p.add_argument("--nodes", type=_NODES, default=512)
    p.add_argument("--frames", type=_TWO_OR_MORE, default=5)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("rigid-check", help="quarter-period rigid rotation round trip")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--m", type=_TWO_OR_MORE, default=3)
    p.add_argument("--s", type=_FINITE, default=0.03)
    p.add_argument("--nodes", type=_NODES, default=256)
    p.set_defaults(fn=cmd_rigid_check)

    # a value such as "-1e-7" is a number, not an option (argparse knows only "-1", "-.5")
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name: the cached parser holds the functions of its first build
        return globals()[args.fn.__name__](args)
    except SystemExit as exc:
        # the parser exits only after --help has printed the usage
        return exc.code
    except ConfigError as exc:
        print(f"CONFIG {exc}", file=sys.stderr)
        return 2
    except _NonFinite as exc:
        return _fail(f"non-finite {exc}")
    except NUMERICAL_ERRORS as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
