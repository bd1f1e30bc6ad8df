"""Command-line drivers for every workflow in the package.

Exit codes follow one contract everywhere: 0 all embedded checks passed,
1 a numerical check failed or the numerics raised one of the package's
typed failures (one machine-parsable FAIL line on stdout), 2 an invalid
command line, 3 any other exception (a bug; traceback on stderr).  The
parser alone decides what a valid command line is: each flag carries its
argument's domain, and a value outside it, an unknown flag or a missing
argument prints one `CONFIG ...` line on stderr and exits 2 before any
numerics run.  Output files are deterministic; re-running a command with the
same arguments reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import traceback
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
from .linearization import (BracketError, bifurcation_scan, disc_jacobian,
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


def _ok(message: str) -> int:
    print(f"OK {message}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_dispersion(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    inner = 0.0 < alpha < 1.0
    theta = theta_alpha(alpha) if inner else None
    rows = []
    for m, om in DispersionTable.build(alpha, args.m_max).values.items():
        gap = theta - om if inner else None
        asym = omega_asymptotic(alpha, m) if inner else None
        err = abs(asym - om) if inner else None
        rows.append({"m": m, "omega": om, "theta_gap": gap,
                     "asymptotic": asym, "asymptotic_error": err})
    if args.format == "json":
        path = write_json(out / "dispersion.json",
                          {"alpha": alpha, "theta": theta, "rows": rows})
    else:
        path = write_csv(out / "dispersion.csv",
                         ["m", "omega", "theta_gap", "asymptotic", "asymptotic_error"],
                         [list(r.values()) for r in rows])
    return _ok(f"wrote {path}")


def cmd_verify_integrals(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    errors = {"I": [], "J": [], "Z": [], "sqg1": [], "sqg2": []}
    orders = np.arange(args.n_max + 1)
    # each closed form reads all its orders off one ladder
    closed_i, closed_j, closed_z = (moment(alpha, orders) for moment in
                                    (singular_moment_I, singular_moment_J, singular_moment_Z))
    for n in orders.tolist():
        ref = oracles.moment_I_quad(alpha, n)
        errors["I"].append(abs(closed_i[n] - ref) / abs(ref))
        ref = oracles.moment_J_quad(alpha, n)
        errors["J"].append(abs(closed_j[n] - ref) / max(abs(ref), 1.0))
        ref = oracles.moment_Z_quad(alpha, n)
        errors["Z"].append(abs(closed_z[n] - ref) / max(abs(ref), 1.0))
    sqg_1, sqg_2 = sqg_moment_1(orders[1:]), sqg_moment_2(orders[1:])
    for n in orders[1:].tolist():
        ref = oracles.sqg_moment_1_quad(n)
        errors["sqg1"].append(abs(sqg_1[n - 1] - ref) / abs(ref))
        ref = oracles.sqg_moment_2_quad(n)
        errors["sqg2"].append(abs(sqg_2[n - 1] - ref) / abs(ref))
    # np.max, not max: Python's max keeps the running value past a NaN, and
    # the report is not written, since JSON holds no non-finite number
    worst = {name: float(np.max(errs)) for name, errs in errors.items()}
    if bad := [name for name, err in worst.items() if not np.isfinite(err)]:
        return _fail(f"non-finite error moment={','.join(bad)}")
    report = {"alpha": alpha, "n_max": args.n_max, "tolerance": 1e-8,
              "max_relative_error": worst}
    path = write_json(out / "verify_integrals.json", report)
    top = max(worst.values())
    if top >= 1e-8:
        return _fail(f"max_relative_error={top:.3e} tolerance=1e-8 report={path}")
    return _ok(f"max_relative_error={top:.3e} wrote {path}")


def cmd_linearize(args) -> int:
    alpha = args.alpha
    # an omega near the float range overflows; the NaN check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        mult = multiplier_at_disc(alpha, args.omega, args.n_modes)
        diag = np.diag(disc_jacobian(alpha, args.omega, args.n_modes))
    # np.max keeps a NaN, so a non-finite multiplier or diagonal entry shows
    # here, before anything is written
    agreement = float(np.max(np.abs(diag - mult[:args.n_modes])))
    if not np.isfinite(agreement):
        return _fail(f"non-finite max_diagonal_gap omega={args.omega:g}")
    out = _outdir(args)
    write_csv(out / "multipliers.csv", ["n", "multiplier"],
              [[n, mult[n]] for n in range(args.n_modes)])
    path = write_json(out / "linearize.json",
                      {"alpha": alpha, "omega": args.omega,
                       "n_modes": args.n_modes,
                       "jacobian_diagonal": diag,
                       "max_diagonal_gap": agreement,
                       "tolerance": 1e-7})
    if agreement >= 1e-7:
        return _fail(f"max_diagonal_gap={agreement:.3e} tolerance=1e-7 report={path}")
    return _ok(f"max_diagonal_gap={agreement:.3e} wrote {path}")


def cmd_scan(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    closed = omega_dispersion(alpha, args.m)
    # the root is bracketed within 0.05 of the closed form and must land within 1e-7
    located = bifurcation_scan(alpha, args.m, (closed - 0.05, closed + 0.05))
    diag = kernel_diagnostics(alpha, args.m, located)
    trans = diag["transversal"]
    gap = abs(located - closed)
    report = {"alpha": alpha, "m": args.m, "omega_located": located,
              "omega_closed_form": closed, "gap": gap,
              "kernel_dimension": diag["n_small"],
              "kernel_mass_on_mode": diag["kernel_mass"],
              "transversal": trans}
    path = write_json(out / f"scan_m{args.m}.json", report)
    if gap >= 1e-7 or diag["n_small"] != 1 or not trans:
        return _fail(f"gap={gap:.3e} kernel_dim={diag['n_small']} "
                     f"transversal={trans} report={path}")
    return _ok(f"gap={gap:.3e} wrote {path}")


def cmd_solve_branch(args) -> int:
    alpha = args.alpha
    if args.s_max < args.ds:
        raise ConfigError(f"ds = {args.ds} exceeds s-max = {args.s_max}")
    out = _outdir(args)
    table = continue_branch(alpha, args.m, args.s_max, args.ds, tol=args.tol)
    rows = [[sol.s, sol.omega, sol.residual_norm,
             *sol.boundary.reduced[:3]] for sol in table.solutions]
    stem = f"branch_a{alpha:g}_m{args.m}"
    write_csv(out / f"{stem}.csv",
              ["s", "omega", "residual", "a1", "a2", "a3"], rows)
    write_json(out / f"{stem}.json",
               {"alpha": alpha, "m": args.m,
                "s": [sol.s for sol in table.solutions],
                "omega": [sol.omega for sol in table.solutions],
                "residual": [sol.residual_norm for sol in table.solutions],
                "residual_evals": [sol.residual_evals for sol in table.solutions],
                "jacobian_builds": [sol.jacobian_builds for sol in table.solutions],
                "reduced": [sol.boundary.reduced for sol in table.solutions],
                "failure": table.failure})
    if table.solutions:
        curves = [eval_map(sol.full_boundary, UnitGrid(512))
                  for sol in table.solutions]
        labels = [f"s={sol.s:g}" for sol in table.solutions]
        write_curves_svg(out / f"{stem}_boundaries.svg", curves, labels)
        write_xy_svg(out / f"{stem}_diagram.svg", table.amplitudes, table.omegas,
                     "s", "omega")
    if table.failure is not None:
        return _fail(f"branch stopped: {table.failure}")
    if not table.solutions:
        return _fail("no branch points solved")
    return _ok(f"solved {len(table.solutions)} branch points, wrote {stem}.*")


def cmd_ellipse_test(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    ratio = ellipse_moment_ratio(alpha)
    ratio_quad = oracles.moment_I_quad(alpha, 2) / oracles.moment_I_quad(alpha, 0)
    ratio_gap = abs(ratio - ratio_quad)
    if not np.isfinite(ratio_gap):
        return _fail("non-finite error moment=I")
    # g4 does not depend on omega: omega enters G through mode 2 only
    field = functional_G(0.0, FourierBoundary.ellipse(args.q), alpha, UnitGrid(256))
    min_g4 = abs(field.sine_coeff(4))
    write_residual_csv(out / "ellipse_residual.csv", field)
    write_residual_json(out / "ellipse_residual.json", field)
    report = {"alpha": alpha, "Q": args.q, "min_abs_g4": min_g4,
              "moment_ratio": ratio, "moment_ratio_quadrature": ratio_quad,
              "moment_ratio_gap": ratio_gap}
    path = write_json(out / "ellipse_test.json", report)
    if min_g4 <= 0.0 or ratio_gap >= 1e-10:
        return _fail(f"min_abs_g4={min_g4:.3e} ratio_gap={ratio_gap:.3e} report={path}")
    return _ok(f"min_abs_g4={min_g4:.3e} ratio_gap={ratio_gap:.3e} wrote {path}")


def _initial_contour(args) -> ContourState:
    if args.shape == "disc":
        return ContourState.disc(args.nodes, args.alpha)
    if args.shape == "ellipse":
        boundary = FourierBoundary.ellipse(args.q)
    else:
        boundary = solve_vstate(args.alpha, args.m, args.s).full_boundary
    return ContourState.from_boundary(boundary, args.nodes, args.alpha)


def _drifts(start: ContourState, end: ContourState) -> tuple[float, float]:
    """Relative area drift and absolute centroid drift from start to end."""
    area0, cent0 = conserved_diagnostics(start)
    area1, cent1 = conserved_diagnostics(end)
    return abs(area1 - area0) / abs(area0), abs(cent1 - cent0)


def cmd_evolve(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    state = _initial_contour(args)
    frames = [state]
    n_chunks = args.frames - 1
    chunk = args.t_final / n_chunks
    # --dt caps the step; the stability rule and the guard may take it lower
    dt_stability, dt_guard = normal_step_bounds(state)
    n_steps, dt = _steps(chunk, min(args.dt, dt_stability, dt_guard))
    for _ in range(n_chunks):
        state = evolve(state, chunk, dt)
        frames.append(state)
    records = [{"time": st.time, "alpha": st.alpha,
                "nodes_re": st.nodes.real, "nodes_im": st.nodes.imag}
               for st in frames]
    write_jsonl(out / "trajectory.jsonl", records)
    write_curves_svg(out / "evolution.svg",
                     [st.nodes for st in frames],
                     [f"t={st.time:.3f}" for st in frames])
    d_area, d_cent = _drifts(frames[0], state)
    path = write_json(out / "evolve_report.json",
                      {"alpha": alpha, "t_final": args.t_final, "nodes": args.nodes,
                       "steps": n_chunks * n_steps, "dt": dt,
                       "dt_stability": dt_stability, "dt_guard": dt_guard,
                       "area_drift": d_area, "centroid_drift": d_cent,
                       "tolerance": 1e-5})
    if d_area >= 1e-5 or d_cent >= 1e-5:
        return _fail(f"area_drift={d_area:.3e} centroid_drift={d_cent:.3e} report={path}")
    return _ok(f"area_drift={d_area:.3e} centroid_drift={d_cent:.3e} wrote {path}")


def cmd_rigid_check(args) -> int:
    alpha = args.alpha
    out = _outdir(args)
    sol = solve_vstate(alpha, args.m, args.s)
    state0 = ContourState.from_boundary(sol.full_boundary, args.nodes, alpha)
    normal_res = normal_velocity_residual(state0, sol.omega)
    t_quarter = np.pi / (2.0 * sol.omega)
    # normal-velocity stepping from equal arclength
    start = redistribute(state0)
    dt_stability, dt_guard = normal_step_bounds(start)
    n_steps, dt = _steps(t_quarter, min(dt_stability, dt_guard))
    state1 = evolve(start, t_quarter, dt)
    rotated = np.exp(1j * sol.omega * t_quarter) * state0.nodes
    dist = hausdorff_distance(state1.nodes, rotated)
    d_area, d_cent = _drifts(state0, state1)
    write_curves_svg(out / f"rigid_m{args.m}.svg", [rotated, state1.nodes],
                     ["rotated initial", "evolved"])
    path = write_json(out / f"rigid_m{args.m}.json",
                      {"alpha": alpha, "m": args.m, "s": args.s,
                       "omega": sol.omega, "nodes": args.nodes,
                       "steps": n_steps, "quarter_period": t_quarter,
                       "dt": dt, "dt_stability": dt_stability,
                       "dt_guard": dt_guard,
                       "normal_velocity_residual": normal_res,
                       "hausdorff": dist, "area_drift": d_area,
                       "centroid_drift": d_cent})
    if dist >= 1e-3 or d_area >= 1e-5 or d_cent >= 1e-5:
        return _fail(f"hausdorff={dist:.3e} area_drift={d_area:.3e} "
                     f"centroid_drift={d_cent:.3e} report={path}")
    return _ok(f"hausdorff={dist:.3e} area_drift={d_area:.3e} wrote {path}")


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


@functools.cache
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("verify-integrals", help="closed-form moments vs quadrature")
    p.add_argument("--alpha", type=_OPEN_UNIT, required=True)
    p.add_argument("--n-max", type=_domain(int, lambda n: n >= 1, "a positive integer"),
                   default=16)
    p.set_defaults(fn=cmd_verify_integrals)

    p = sub.add_parser("linearize", help="disc multipliers vs assembled Jacobian")
    p.add_argument("--alpha", type=_ALPHA, required=True)
    p.add_argument("--omega", type=_FINITE, default=0.0)
    p.add_argument("--n-modes", type=_TWO_OR_MORE, default=16)
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
    p.add_argument("--tol", type=_POSITIVE, default=1e-11)
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
    except NUMERICAL_ERRORS as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
