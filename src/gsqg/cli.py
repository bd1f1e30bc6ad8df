"""Command-line drivers for every workflow in the package.

Exit codes follow one contract everywhere: 0 all embedded checks passed,
1 a numerical check failed or the numerics raised one of the package's
typed failures (one machine-parsable FAIL line on stdout), 2 invalid
configuration, 3 any other exception (a bug; traceback on stderr).  Output
files are deterministic; re-running a command with the same arguments
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import oracles
from .continuation import (FoldError, NonConvergenceError, continue_branch,
                           solve_vstate)
from .evolution import (ContourError, ContourState, conserved_diagnostics, evolve,
                        hausdorff_distance, normal_velocity_residual,
                        velocity_contour)
from .geometry import FourierBoundary, UnitGrid, eval_map
from .kernels import (SelfIntersectionError, ellipse_fourth_coefficient,
                      ellipse_moment_ratio, functional_G, singular_moment_I,
                      singular_moment_J, singular_moment_Z, sqg_moment_1,
                      sqg_moment_2)
from .linearization import (BracketError, bifurcation_scan, kernel_diagnostics,
                            multiplier_at_disc, numerical_jacobian,
                            transversality_check)
from .output import (write_csv, write_curves_svg, write_json, write_jsonl,
                     write_residual_csv, write_residual_json, write_xy_svg)
from .specfun import (GammaPoleError, omega_asymptotic, omega_dispersion,
                      theta_alpha)

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


def _check_alpha(alpha: float, *, lo: float = 0.0, hi: float = 1.0,
                 open_lo: bool = False, open_hi: bool = False) -> float:
    bad = alpha < lo or alpha > hi or (open_lo and alpha == lo) or (open_hi and alpha == hi)
    if bad:
        kind = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
        raise ConfigError(f"alpha = {alpha} outside {kind}")
    return alpha


def _fail(reason: str) -> int:
    print(f"FAIL {reason}")
    return 1


def _ok(message: str) -> int:
    print(f"OK {message}")
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_dispersion(args) -> int:
    alpha = _check_alpha(args.alpha)
    if args.m_max < 2:
        raise ConfigError("m-max must be >= 2")
    out = _outdir(args)
    inner = 0.0 < alpha < 1.0
    theta = theta_alpha(alpha) if inner else None
    rows = []
    for m in range(2, args.m_max + 1):
        om = omega_dispersion(alpha, m)
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
                         [[r["m"], r["omega"],
                           "" if r["theta_gap"] is None else r["theta_gap"],
                           "" if r["asymptotic"] is None else r["asymptotic"],
                           "" if r["asymptotic_error"] is None else r["asymptotic_error"]]
                          for r in rows])
    return _ok(f"wrote {path}")


def cmd_verify_integrals(args) -> int:
    alpha = _check_alpha(args.alpha, open_lo=True, open_hi=True)
    if args.n_max < 1:
        raise ConfigError("n-max must be >= 1")
    out = _outdir(args)
    worst = {"I": 0.0, "J": 0.0, "Z": 0.0, "sqg1": 0.0, "sqg2": 0.0}
    for n in range(args.n_max + 1):
        ref = oracles.moment_I_quad(alpha, n)
        worst["I"] = max(worst["I"], abs(singular_moment_I(alpha, n) - ref) / abs(ref))
        ref = oracles.moment_J_quad(alpha, n)
        scale = max(abs(ref), 1.0)
        worst["J"] = max(worst["J"], abs(singular_moment_J(alpha, n) - ref) / scale)
        ref = oracles.moment_Z_quad(alpha, n)
        scale = max(abs(ref), 1.0)
        worst["Z"] = max(worst["Z"], abs(singular_moment_Z(alpha, n) - ref) / scale)
    for n in range(1, args.n_max + 1):
        ref = oracles.sqg_moment_1_quad(n)
        worst["sqg1"] = max(worst["sqg1"], abs(sqg_moment_1(n) - ref) / abs(ref))
        ref = oracles.sqg_moment_2_quad(n)
        worst["sqg2"] = max(worst["sqg2"], abs(sqg_moment_2(n) - ref) / abs(ref))
    report = {"alpha": alpha, "n_max": args.n_max, "tolerance": 1e-8,
              "max_relative_error": worst}
    path = write_json(out / "verify_integrals.json", report)
    top = max(worst.values())
    if top >= 1e-8:
        return _fail(f"max_relative_error={top:.3e} tolerance=1e-8 report={path}")
    return _ok(f"max_relative_error={top:.3e} wrote {path}")


def cmd_linearize(args) -> int:
    alpha = _check_alpha(args.alpha)
    if args.n_modes < 2:
        raise ConfigError("n-modes must be >= 2")
    out = _outdir(args)
    spectrum = multiplier_at_disc(alpha, args.omega, args.n_modes)
    jac = numerical_jacobian(FourierBoundary.identity(), args.omega, alpha,
                             n_modes=args.n_modes, check_conditioning=False)
    diag = np.diag(jac.entries)
    agreement = float(np.max(np.abs(diag - spectrum.mult[:args.n_modes])))
    write_csv(out / "multipliers.csv", ["n", "multiplier"],
              [[n, spectrum.mult[n]] for n in range(args.n_modes)])
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
    alpha = _check_alpha(args.alpha, open_lo=True)
    if args.m < 2:
        raise ConfigError("m must be >= 2")
    out = _outdir(args)
    closed = omega_dispersion(alpha, args.m)
    window = (closed - args.window, closed + args.window)
    located = bifurcation_scan(alpha, args.m, window)
    diag = kernel_diagnostics(alpha, args.m, located)
    trans = transversality_check(alpha, args.m)
    gap = abs(located - closed)
    report = {"alpha": alpha, "m": args.m, "omega_located": located,
              "omega_closed_form": closed, "gap": gap,
              "kernel_dimension": diag["n_small"],
              "kernel_mass_on_mode": diag["kernel_mass"],
              "transversal": trans}
    path = write_json(out / f"scan_m{args.m}.json", report)
    if gap >= args.tol or diag["n_small"] != 1 or not trans:
        return _fail(f"gap={gap:.3e} kernel_dim={diag['n_small']} "
                     f"transversal={trans} report={path}")
    return _ok(f"gap={gap:.3e} wrote {path}")


def cmd_solve_branch(args) -> int:
    alpha = _check_alpha(args.alpha, open_lo=True)
    if args.m < 2:
        raise ConfigError("m must be >= 2")
    if args.ds <= 0 or args.s_max < args.ds:
        raise ConfigError("need 0 < ds <= s-max")
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
    alpha = _check_alpha(args.alpha, open_lo=True, open_hi=True)
    if not 0.0 < args.q < 1.0:
        raise ConfigError("Q must lie in (0, 1)")
    out = _outdir(args)
    omegas = np.linspace(-1.0, 1.0, args.omega_samples)
    g4 = [ellipse_fourth_coefficient(om, args.q, alpha) for om in omegas]
    min_g4 = float(np.min(np.abs(g4)))
    ratio = ellipse_moment_ratio(alpha)
    ratio_quad = oracles.moment_I_quad(alpha, 2) / oracles.moment_I_quad(alpha, 0)
    ratio_gap = abs(ratio - ratio_quad)
    field = functional_G(0.0, FourierBoundary.ellipse(args.q), alpha, UnitGrid(256))
    write_residual_csv(out / "ellipse_residual.csv", field)
    write_residual_json(out / "ellipse_residual.json", field)
    report = {"alpha": alpha, "Q": args.q, "min_abs_g4": min_g4,
              "moment_ratio": ratio, "moment_ratio_quadrature": ratio_quad,
              "moment_ratio_gap": ratio_gap}
    path = write_json(out / "ellipse_test.json", report)
    if min_g4 <= args.floor or ratio_gap >= 1e-10:
        return _fail(f"min_abs_g4={min_g4:.3e} ratio_gap={ratio_gap:.3e} report={path}")
    return _ok(f"min_abs_g4={min_g4:.3e} ratio_gap={ratio_gap:.3e} wrote {path}")


def _initial_contour(args, alpha: float) -> ContourState:
    if args.shape == "disc":
        return ContourState.disc(args.nodes, alpha)
    if args.shape == "ellipse":
        if not 0.0 < args.q < 1.0:
            raise ConfigError("ellipse needs --q in (0, 1)")
        return ContourState.from_boundary(FourierBoundary.ellipse(args.q),
                                          args.nodes, alpha)
    if args.shape == "vstate":
        sol = solve_vstate(alpha, args.m, args.s)
        return ContourState.from_boundary(sol.full_boundary, args.nodes, alpha)
    raise ConfigError(f"unknown shape {args.shape!r}")


def cmd_evolve(args) -> int:
    alpha = _check_alpha(args.alpha, open_lo=True)
    if args.t_final <= 0 or args.dt <= 0:
        raise ConfigError("need positive --t-final and --dt")
    out = _outdir(args)
    state = _initial_contour(args, alpha)
    area0, cent0 = conserved_diagnostics(state)
    frames = [state]
    n_chunks = max(1, args.frames - 1)
    for _ in range(n_chunks):
        state = evolve(state, args.t_final / n_chunks, args.dt)
        frames.append(state)
    records = [{"time": st.time, "alpha": st.alpha,
                "nodes_re": st.nodes.real, "nodes_im": st.nodes.imag}
               for st in frames]
    write_jsonl(out / "trajectory.jsonl", records)
    write_curves_svg(out / "evolution.svg",
                     [st.nodes for st in frames],
                     [f"t={st.time:.3f}" for st in frames])
    area1, cent1 = conserved_diagnostics(state)
    d_area = abs(area1 - area0) / abs(area0)
    d_cent = abs(cent1 - cent0)
    path = write_json(out / "evolve_report.json",
                      {"alpha": alpha, "t_final": args.t_final, "dt": args.dt,
                       "nodes": args.nodes, "area_drift": d_area,
                       "centroid_drift": d_cent, "tolerance": 1e-5})
    if d_area >= 1e-5 or d_cent >= 1e-5:
        return _fail(f"area_drift={d_area:.3e} centroid_drift={d_cent:.3e} report={path}")
    return _ok(f"area_drift={d_area:.3e} centroid_drift={d_cent:.3e} wrote {path}")


def cmd_rigid_check(args) -> int:
    alpha = _check_alpha(args.alpha, open_lo=True)
    if args.m < 2:
        raise ConfigError("m must be >= 2")
    out = _outdir(args)
    sol = solve_vstate(alpha, args.m, args.s)
    state0 = ContourState.from_boundary(sol.full_boundary, args.nodes, alpha)
    normal_res = normal_velocity_residual(state0, sol.omega)
    t_quarter = np.pi / (2.0 * sol.omega)
    u0 = velocity_contour(state0)
    spacing = float(np.mean(np.abs(np.roll(state0.nodes, -1) - state0.nodes)))
    dt = 0.95 * spacing / (4.0 * float(np.max(np.abs(u0))))
    n_steps = int(np.ceil(t_quarter / dt))
    state1 = evolve(state0, t_quarter, t_quarter / n_steps)
    rotated = np.exp(1j * sol.omega * t_quarter) * state0.nodes
    dist = hausdorff_distance(state1.nodes, rotated)
    area0, cent0 = conserved_diagnostics(state0)
    area1, cent1 = conserved_diagnostics(state1)
    d_area = abs(area1 - area0) / abs(area0)
    d_cent = abs(cent1 - cent0)
    write_curves_svg(out / f"rigid_m{args.m}.svg", [rotated, state1.nodes],
                     ["rotated initial", "evolved"])
    path = write_json(out / f"rigid_m{args.m}.json",
                      {"alpha": alpha, "m": args.m, "s": args.s,
                       "omega": sol.omega, "nodes": args.nodes,
                       "steps": n_steps, "quarter_period": t_quarter,
                       "normal_velocity_residual": normal_res,
                       "hausdorff": dist, "area_drift": d_area,
                       "centroid_drift": d_cent})
    if dist >= 1e-3 or d_area >= 1e-5 or d_cent >= 1e-5:
        return _fail(f"hausdorff={dist:.3e} area_drift={d_area:.3e} "
                     f"centroid_drift={d_cent:.3e} report={path}")
    return _ok(f"hausdorff={dist:.3e} area_drift={d_area:.3e} wrote {path}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsqg",
        description="Rotating-patch laboratory for the generalized SQG equation")
    parser.add_argument("--output-dir", default=None,
                        help=f"output directory (default ${ENV_OUTPUT_DIR} or ./gsqg-out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="tabulate bifurcation angular velocities")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_dispersion)

    p = sub.add_parser("verify-integrals", help="closed-form moments vs quadrature")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n-max", type=int, default=16)
    p.set_defaults(fn=cmd_verify_integrals)

    p = sub.add_parser("linearize", help="disc multipliers vs assembled Jacobian")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--omega", type=float, default=0.0)
    p.add_argument("--n-modes", type=int, default=16)
    p.set_defaults(fn=cmd_linearize)

    p = sub.add_parser("scan", help="locate a bifurcation point spectrally")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--window", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("solve-branch", help="continue an m-fold branch in amplitude")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s-max", type=float, required=True)
    p.add_argument("--ds", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-11)
    p.set_defaults(fn=cmd_solve_branch)

    p = sub.add_parser("ellipse-test", help="ellipses never rotate: mode-4 obstruction")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--Q", dest="q", type=float, required=True)
    p.add_argument("--omega-samples", type=int, default=21)
    p.add_argument("--floor", type=float, default=0.0)
    p.set_defaults(fn=cmd_ellipse_test)

    p = sub.add_parser("evolve", help="contour-dynamics time integration")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--shape", choices=("disc", "ellipse", "vstate"), default="disc")
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--s", type=float, default=0.03)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--nodes", type=int, default=512)
    p.add_argument("--frames", type=int, default=5)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("rigid-check", help="quarter-period rigid rotation round trip")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--s", type=float, default=0.03)
    p.add_argument("--nodes", type=int, default=1024)
    p.set_defaults(fn=cmd_rigid_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
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
