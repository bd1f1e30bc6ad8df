import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gsqg.cli as cli
import gsqg.continuation as continuation
import gsqg.kernels as kernels
import gsqg.linearization as lin
import gsqg.oracles as oracles
import gsqg.specfun as specfun
from gsqg.cli import main
from gsqg.continuation import NonConvergenceError
from gsqg.geometry import default_grid
from gsqg.output import (SVG_SIZE, format_float, json_dumps, write_csv, write_curves_svg,
                         write_xy_svg)


class TestFormatting:
    def test_json_significant_digits(self):
        text = json_dumps({"x": 1.0 / 3.0})
        assert text == '{"x": 0.3333333333333333}'
        assert json.loads(text)["x"] == 1.0 / 3.0   # round-trips exactly

    def test_csv_digits(self):
        assert format_float(math.pi, 12) == "3.14159265359"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            json_dumps({"x": float("nan")})

    def test_control_characters_round_trip(self):
        # a newline in an exception message can land in solve-branch's failure
        text = json_dumps({"failure": "a\nb\tc\x01d"})
        assert json.loads(text) == {"failure": "a\nb\tc\x01d"}

    def test_integral_floats_read_back_as_float(self):
        back = json.loads(json_dumps({"x": 0.0, "y": 2.0, "v": np.array([0.0, 2.0])}))
        assert [type(v) for v in (back["x"], back["y"], *back["v"])] == [float] * 4

    def test_evolve_start_time_reads_back_as_float(self, tmp_path):
        assert run_cli(tmp_path, "evolve", "--alpha", "0.5", "--shape", "disc",
                       "--t-final", "0.02", "--dt", "0.01", "--nodes", "64",
                       "--frames", "2") == 0
        first = json.loads((tmp_path / "trajectory.jsonl").read_text().splitlines()[0])
        assert type(first["time"]) is float and first["time"] == 0.0

    def test_nested_structures(self):
        text = json_dumps({"a": [1, 2.5, None], "b": {"c": True}, "d": "q\"uote"})
        assert json.loads(text) == {"a": [1, 2.5, None], "b": {"c": True}, "d": 'q"uote'}

    def test_numpy_values(self):
        text = json_dumps({"v": np.arange(3, dtype=float), "n": np.int64(4)})
        assert json.loads(text) == {"v": [0.0, 1.0, 2.0], "n": 4}

    def test_csv_writer(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0], [None, 0.5]])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,0.333333333333"
        assert lines[3] == ",0.5"     # None is an empty cell

    @staticmethod
    def _points(element):
        return np.array([[float(v) for v in pair.split(",")]
                         for pair in element.get("points").split()])

    @pytest.mark.parametrize("n", [3, 64, 1000])
    def test_svg_curves_are_polygons_through_the_samples(self, tmp_path, n, rng):
        curves = [rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n),
                  0.3 + 2.0 * np.exp(2j * np.pi * np.arange(n) / n)]
        p = write_curves_svg(tmp_path / "c.svg", curves, ["a", "b"])
        polygons = [el for el in ET.parse(p).getroot() if el.tag.endswith("polygon")]
        assert len(polygons) == len(curves)
        # the canvas map: common centre, 1.15 times the larger span across the canvas
        allpts = np.concatenate(curves)
        scale = SVG_SIZE / (1.15 * max(np.ptp(allpts.real), np.ptp(allpts.imag)))
        cx = (allpts.real.max() + allpts.real.min()) / 2.0
        cy = (allpts.imag.max() + allpts.imag.min()) / 2.0
        for element, z in zip(polygons, curves):
            pts = self._points(element)
            assert pts.shape == (len(z), 2)
            canvas = np.column_stack([(z.real - cx) * scale + SVG_SIZE / 2.0,
                                      (cy - z.imag) * scale + SVG_SIZE / 2.0])
            assert np.max(np.abs(pts - canvas)) <= 5e-5 * (1.0 + 1e-9)
        first = p.read_bytes()
        assert write_curves_svg(tmp_path / "c.svg", curves, ["a", "b"]).read_bytes() == first

    def test_xy_svg_is_one_polyline(self, tmp_path):
        x = np.linspace(0.0, 0.04, 5)
        p = write_xy_svg(tmp_path / "d.svg", x, 0.3 + x ** 2, "s", "omega")
        lines = [el for el in ET.parse(p).getroot() if el.tag.endswith("polyline")]
        assert len(lines) == 1 and self._points(lines[0]).shape == (len(x), 2)

    def test_svg_is_valid_xml(self, tmp_path):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        p = write_curves_svg(tmp_path / "c.svg", [np.exp(1j * theta)], ["disc"])
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polygon") for child in root)


def run_cli(tmp_path, *args):
    return main(["--output-dir", str(tmp_path), *args])


def assert_config_error(tmp_path, capsys, *args):
    """An invalid command line exits 2 with one CONFIG line on stderr and writes nothing."""
    assert run_cli(tmp_path, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG") and err.count("\n") == 1 and err.endswith("\n"), err
    assert not list(tmp_path.glob("*"))


# one non-finite float per command line; the parser rejects each as invalid
# configuration, before any numerics can fail on it
NON_FINITE_ARGS = [
    ("evolve", "--alpha", "0.5", "--t-final", "0.1", "--dt", "nan"),
    ("evolve", "--alpha", "0.5", "--t-final", "inf", "--dt", "0.01"),
    ("evolve", "--alpha", "nan", "--t-final", "0.1", "--dt", "0.01"),
    ("dispersion", "--alpha", "nan"),
    ("scan", "--alpha", "nan", "--m", "3"),
    ("rigid-check", "--alpha", "nan"),
    ("rigid-check", "--alpha", "0.5", "--s", "nan"),
    ("rigid-check", "--alpha", "0.5", "--s", "inf"),
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "nan", "--ds", "0.01"),
]

# one invalid configuration per command line: each exits 2 before any numerics
BAD_CONFIG_ARGS = [
    ("evolve", "--alpha", "0.5", "--shape", "vstate", "--m", "1",
     "--t-final", "0.1", "--dt", "0.01"),
    ("evolve", "--alpha", "0.5", "--t-final", "0.1", "--dt", "0.01", "--frames", "1"),
    ("evolve", "--alpha", "0.5", "--t-final", "0.1", "--dt", "0.01", "--frames", "-3"),
    # the gap and residual bounds of scan and solve-branch are fixed: their
    # retired --tol flags are refused as unknown, not ignored
    ("scan", "--alpha", "0.5", "--m", "3", "--tol", "-1e-7"),
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "0.01", "--ds", "0.01",
     "--tol", "0"),
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "0.01", "--ds", "0.01",
     "--tol", "-1e-7"),
    ("dispersion", "--alpha", "0.5", "--m-max", "1"),
    ("verify-integrals", "--alpha", "1"),
    ("ellipse-test", "--alpha", "1", "--Q", "0.5"),
    ("linearize", "--alpha", "0.5", "--n-modes", "1"),
    ("scan", "--alpha", "0.5", "--m", "1"),
    ("scan", "--alpha", "0.5", "--m", "2.5"),
    ("rigid-check", "--alpha", "0.5", "--m", "1"),
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "0.01", "--ds", "0"),
    # the one check across arguments, made in the command body
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "0.01", "--ds", "0.02"),
    # the parser checks --q and --m whatever shape they serve
    ("evolve", "--alpha", "0.5", "--shape", "ellipse", "--q", "0",
     "--t-final", "0.1", "--dt", "0.01"),
    ("evolve", "--alpha", "0.5", "--shape", "disc", "--m", "1",
     "--t-final", "0.1", "--dt", "0.01"),
    # dispersion writes both tables: its retired --format flag is refused
    ("dispersion", "--alpha", "0.5", "--format", "json"),
    # flags are matched whole, not as prefixes of --m-max and --s-max
    ("dispersion", "--alpha", "0.5", "--m", "3"),
    ("solve-branch", "--alpha", "0.5", "--m", "3", "--s", "0.02", "--ds", "0.01"),
    # a missing argument and an unknown command
    ("scan", "--alpha", "0.5"),
    ("spin", "--alpha", "0.5"),
]

ROOT = Path(__file__).resolve().parents[1]
SCIPY_SUBMODULES = ("scipy.fft", "scipy.special", "scipy.spatial", "scipy.interpolate",
                    "scipy.integrate")
# a fresh interpreter imports gsqg, runs the command line given to it, if
# any, and prints the exit code and which of SCIPY_SUBMODULES it has loaded
FOOTPRINT_SCRIPT = f"""
import sys
import warnings
import gsqg
code = 0
if len(sys.argv) > 1:
    from gsqg.cli import main
    code = main(sys.argv[1:])
print(code, *sorted(set({SCIPY_SUBMODULES!r}) & set(sys.modules)))
"""


class TestCli:
    def test_dispersion_critical_rows(self, tmp_path):
        assert run_cli(tmp_path, "dispersion", "--alpha", "1", "--m-max", "5") == 0
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        first = float(lines[1].split(",")[1])
        second = float(lines[2].split(",")[1])
        assert first == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-11)
        assert second == pytest.approx(2.0 / (3.0 * math.pi) + 2.0 / (5.0 * math.pi),
                                       rel=1e-11)

    def test_dispersion_euler_rows(self, tmp_path):
        assert run_cli(tmp_path, "dispersion", "--alpha", "0", "--m-max", "4") == 0
        rows = (tmp_path / "dispersion.csv").read_text().splitlines()[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert vals == pytest.approx([0.25, 1.0 / 3.0, 0.375], rel=1e-11)

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "dispersion", "--alpha", "1.5")

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "dispersion", "--alpho", "0.5")
        assert_config_error(tmp_path, capsys, "dispersion", "--alpha", "0.5", "--omega", "3")

    @pytest.mark.parametrize("argv", [("--help",), ("scan", "--help")], ids=" ".join)
    def test_help_exits_0(self, capsys, argv):
        assert main(list(argv)) == 0
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: gsqg", *argv[:-1]])) and err == ""

    def test_determinism(self, tmp_path):
        run_cli(tmp_path / "a", "dispersion", "--alpha", "0.5", "--m-max", "12")
        run_cli(tmp_path / "b", "dispersion", "--alpha", "0.5", "--m-max", "12")
        for name in ("dispersion.csv", "dispersion.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_verify_integrals(self, tmp_path):
        assert run_cli(tmp_path, "verify-integrals", "--alpha", "0.5",
                       "--n-max", "4") == 0
        report = json.loads((tmp_path / "verify_integrals.json").read_text())
        assert max(report["max_relative_error"].values()) < 1e-8

    def test_verify_integrals_near_one(self, tmp_path):
        # the oracle's own error must stay far below the 1e-8 gate near alpha = 1
        assert run_cli(tmp_path, "verify-integrals", "--alpha", "0.999") == 0
        report = json.loads((tmp_path / "verify_integrals.json").read_text())
        assert max(report["max_relative_error"].values()) < 1e-10

    def test_verify_integrals_at_the_critical_edge(self, tmp_path):
        # no node sits near t = 0, where |2 sin(t/2)|^(alpha + 2) underflows
        assert run_cli(tmp_path, "verify-integrals", "--alpha", "0.999999") == 0
        report = json.loads((tmp_path / "verify_integrals.json").read_text())
        assert max(report["max_relative_error"].values()) < 1e-10

    @pytest.mark.parametrize("alpha", ["0.05", "0.5", "0.999"])
    def test_verify_integrals_to_high_order(self, tmp_path, alpha):
        # the rule grows with n: a fixed 40 nodes is 13 (relative) off at n = 48
        # and alpha = 0.5
        assert run_cli(tmp_path, "verify-integrals", "--alpha", alpha, "--n-max", "128") == 0
        report = json.loads((tmp_path / "verify_integrals.json").read_text())
        assert max(report["max_relative_error"].values()) < 1e-10

    def test_verify_integrals_work(self, tmp_path, monkeypatch):
        evals = []
        original = oracles._mean_integral

        def counting(fn, alpha, n):
            return original(lambda t: evals.append(len(t)) or fn(t), alpha, n)
        monkeypatch.setattr(oracles, "_mean_integral", counting)
        assert run_cli(tmp_path, "verify-integrals", "--alpha", "0.5", "--n-max", "16") == 0
        # one integrand call per value, 83 values, none on more nodes than order 16 uses
        assert len(evals) == 3 * 17 + 2 * 16
        assert 0 < sum(evals) <= 83 * oracles._node_count(16)

    @pytest.mark.parametrize("argv, check", [
        (("verify-integrals", "--alpha", "0.5", "--n-max", "2"), "I"),
        (("ellipse-test", "--alpha", "0.5", "--Q", "0.5"), "moment_ratio_gap"),
    ], ids=["verify-integrals", "ellipse-test"])
    def test_nan_moment_fails_before_the_report(self, tmp_path, monkeypatch, capsys, argv,
                                                check):
        # one NaN, after finite values: Python's max would step over it
        original = oracles.moment_I_quad
        monkeypatch.setattr(oracles, "moment_I_quad",
                            lambda alpha, n: float("nan") if n == 2 else original(alpha, n))
        assert run_cli(tmp_path, *argv) == 1
        assert capsys.readouterr().out == f"FAIL non-finite {check}\n"
        assert not list(tmp_path.glob("*.json"))

    def test_nan_hausdorff_fails_before_the_report(self, tmp_path, monkeypatch, capsys):
        # without the finite check the JSON encoder refuses the NaN, which exits 3
        monkeypatch.setattr(cli, "hausdorff_distance", lambda a, b: float("nan"))
        assert run_cli(tmp_path, "rigid-check", "--alpha", "0.5", "--nodes", "128") == 1
        assert capsys.readouterr().out == "FAIL non-finite hausdorff\n"
        # neither rigid_m3.json nor the figure
        assert list(tmp_path.iterdir()) == []

    def test_parser_is_built_once(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ("verify-integrals", "--alpha", "0.3", "--n-max", "4")
        for sub in ("a", "b"):
            assert run_cli(tmp_path / sub, *argv) == 0
        first = (tmp_path / "a" / "verify_integrals.json").read_bytes()
        assert first == (tmp_path / "b" / "verify_integrals.json").read_bytes()
        capsys.readouterr()
        assert_config_error(tmp_path / "c", capsys, "verify-integrals", "--alpha", "0.3",
                            "--n-max", "0")

    def test_linearize_non_finite_fails_before_writing(self, tmp_path, capsys):
        # the multipliers overflow at this omega and the quadrature diagonal
        # reads NaN; any warning on the way would raise and exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(tmp_path, "linearize", "--alpha", "0.5", "--omega", "1e308",
                           "--n-modes", "4") == 1
        out, err = capsys.readouterr()
        assert out.startswith("FAIL non-finite max_diagonal_gap") and err == ""
        assert list(tmp_path.iterdir()) == []

    def test_linearize(self, tmp_path):
        assert run_cli(tmp_path, "linearize", "--alpha", "0.5", "--omega", "0.3",
                       "--n-modes", "8") == 0
        assert (tmp_path / "multipliers.csv").exists()

    def test_scan(self, tmp_path):
        assert run_cli(tmp_path, "scan", "--alpha", "0.5", "--m", "2") == 0
        report = json.loads((tmp_path / "scan_m2.json").read_text())
        assert report["gap"] < 1e-7
        assert report["kernel_dimension"] == 1
        assert report["transversal"] is True

    def test_scan_fails_without_transversality(self, tmp_path, monkeypatch, capsys):
        # the gap passes; the exact condition alone decides, and the report is written
        original = cli.kernel_diagnostics
        monkeypatch.setattr(cli, "kernel_diagnostics",
                            lambda *args: {**original(*args), "transversal": False})
        assert run_cli(tmp_path, "scan", "--alpha", "0.5", "--m", "3") == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL gap=") and out.count("\n") == 1
        # the line names the condition that fails, and only that one
        assert " transversal=False report=" in out and "simple_kernel" not in out
        assert json.loads((tmp_path / "scan_m3.json").read_text())["transversal"] is False

    def test_scan_builds_one_disc_jacobian(self, tmp_path, monkeypatch):
        calls = {"functional_G": 0, "monomial_derivatives": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module in (kernels, cli, continuation):
            if hasattr(module, "functional_G"):
                counting(module, "functional_G")
        counting(lin, "monomial_derivatives")
        lin._disc_at_rest.cache_clear()
        for alpha in ("0.5", "1"):
            for m, passes in (("3", 1), ("4", 0)):
                calls.update(dict.fromkeys(calls, 0))
                assert run_cli(tmp_path / alpha, "scan", "--alpha", alpha, "--m", m) == 0
                # the affine entry and the 16-mode diagnostics read one cached
                # pass at omega = 0, which the next scan at this alpha shares;
                # no residual is evaluated
                assert calls == {"functional_G": 0, "monomial_derivatives": passes}
                report = json.loads((tmp_path / alpha / f"scan_m{m}.json").read_text())
                assert report["gap"] < 1e-14

    def test_default_linearize_shares_the_scan_pass(self, tmp_path):
        # linearize's default --n-modes is the disc Jacobian's mode count,
        # so after a scan at m = 3 it reads the same cached pass
        lin._disc_at_rest.cache_clear()
        assert run_cli(tmp_path, "scan", "--alpha", "0.45", "--m", "3") == 0
        misses = lin._disc_at_rest.cache_info().misses
        assert run_cli(tmp_path, "linearize", "--alpha", "0.45") == 0
        assert lin._disc_at_rest.cache_info().misses == misses
        report = json.loads((tmp_path / "linearize.json").read_text())
        assert report["n_modes"] == lin._DISC_MODES

    def test_dispersion_reads_one_ladder(self, tmp_path, monkeypatch):
        calls = []
        original = specfun.gap_ladder

        def counting(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(specfun, "gap_ladder", counting)
        assert run_cli(tmp_path, "dispersion", "--alpha", "0.5", "--m-max", "50") == 0
        # every omega_m of the report is a rung of one ladder up to m = 50
        assert calls == [(1.25, 1.75, 49)]

    def test_dispersion_asymptotic_columns(self, tmp_path):
        # `asymptotic` is omega_asymptotic and `asymptotic_error` its distance
        # to omega, which falls faster than the m^(alpha-2) omega_asymptotic
        # states: m^1.7 times it reads 9.6e-4 at m = 10 and 9.6e-5 at m = 100
        # (with gamma(2 - alpha) in the amplitude, 0.25 and 2.5)
        assert run_cli(tmp_path, "dispersion", "--alpha", "0.3", "--m-max", "100") == 0
        rows = json.loads((tmp_path / "dispersion.json").read_text())["rows"]
        for row in rows:
            assert row["asymptotic"] == specfun.omega_asymptotic(0.3, row["m"])
            assert row["asymptotic_error"] == abs(row["omega"] - row["asymptotic"])
        scaled = {row["m"]: row["asymptotic_error"] * row["m"] ** 1.7 for row in rows}
        assert scaled[100] < 0.2 * scaled[10]

    def test_linearize_critical(self, tmp_path):
        assert run_cli(tmp_path, "linearize", "--alpha", "1", "--omega", "0.3",
                       "--n-modes", "8") == 0
        report = json.loads((tmp_path / "linearize.json").read_text())
        assert report["max_diagonal_gap"] < 1e-12

    @pytest.mark.parametrize("alpha", ["0", "-0.1", "1.5"])
    def test_linearize_bad_alpha_exits_2(self, tmp_path, capsys, alpha):
        assert_config_error(tmp_path, capsys, "linearize", "--alpha", alpha, "--omega", "0.3")

    def test_ellipse_test(self, tmp_path):
        assert run_cli(tmp_path, "ellipse-test", "--alpha", "0.5", "--Q", "0.3") == 0
        report = json.loads((tmp_path / "ellipse_test.json").read_text())
        assert report["min_abs_g4"] > 0.002
        assert report["moment_ratio_gap"] < 1e-10
        # residual-field exports ride along
        resid = json.loads((tmp_path / "ellipse_residual.json").read_text())
        assert list(resid) == ["grid_size", "sine_coeffs"] and resid["grid_size"] == 256
        assert report["min_abs_g4"] == abs(resid["sine_coeffs"][3])
        lines = (tmp_path / "ellipse_residual.csv").read_text().splitlines()
        assert lines[0] == "angle,residual" and len(lines) == 257
        # one row per node of the grid, at angles 2 pi j / 256, written to 12 digits
        angles = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.allclose(angles, 2.0 * np.pi * np.arange(256) / 256, rtol=1e-11, atol=0.0)

    def test_ellipse_test_names_a_vanishing_g4(self, tmp_path, monkeypatch, capsys):
        # a residual with no mode-4 obstruction: the ratio gap passes and the
        # line names the exact condition that fails
        monkeypatch.setattr(cli, "functional_G", lambda omega, bnd, alpha, grid:
                            kernels._field_from_values(np.zeros(grid.size), grid))
        assert run_cli(tmp_path, "ellipse-test", "--alpha", "0.5", "--Q", "0.3") == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL moment_ratio_gap=") and " nonzero_g4=False report=" in out
        assert json.loads((tmp_path / "ellipse_test.json").read_text())["min_abs_g4"] == 0.0

    @pytest.mark.parametrize("alpha", ["0.99", "0.999"])
    def test_ellipse_test_near_one(self, tmp_path, alpha):
        # near alpha = 1 the quadrature ratio meets the closed form well inside the 1e-10 gate
        assert run_cli(tmp_path, "ellipse-test", "--alpha", alpha, "--Q", "0.3") == 0
        report = json.loads((tmp_path / "ellipse_test.json").read_text())
        assert report["moment_ratio_gap"] < 1e-11

    def test_ellipse_bad_q_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "ellipse-test", "--alpha", "0.5", "--Q", "1.2")

    def test_solve_branch(self, tmp_path):
        assert run_cli(tmp_path, "solve-branch", "--alpha", "0.5", "--m", "2",
                       "--s-max", "0.02", "--ds", "0.01") == 0
        stem = "branch_a0.5_m2"
        assert (tmp_path / f"{stem}.csv").exists()
        assert (tmp_path / f"{stem}_boundaries.svg").exists()
        assert (tmp_path / f"{stem}_diagram.svg").exists()
        report = json.loads((tmp_path / f"{stem}.json").read_text())
        assert report["failure"] is None
        assert max(report["residual"]) < 1e-11
        # the full reduced coefficients re-check a kept point without a solve
        grid = default_grid(16 * 2)
        for omega, reduced, res in zip(report["omega"], report["reduced"], report["residual"]):
            assert len(reduced) == 16
            rows = continuation._equations(omega, np.array(reduced), 0.5, 2, grid, 16)
            assert np.max(np.abs(rows)) == res

    def test_solve_branch_figure_resolves_a_high_m(self, tmp_path, capsys):
        # at m = 17 the rungs reach order 271, past what 512 nodes resolve
        assert run_cli(tmp_path, "solve-branch", "--alpha", "0.5", "--m", "17",
                       "--s-max", "0.01", "--ds", "0.01") == 0
        assert "WARN" not in capsys.readouterr().err
        figure = ET.parse(tmp_path / "branch_a0.5_m17_boundaries.svg").getroot()
        polygons = [el for el in figure if el.tag.endswith("polygon")]
        assert [len(el.get("points").split()) for el in polygons] == [544]

    def test_solve_branch_reports_solver_work(self, tmp_path):
        # per-point counts are deterministic, so the report stays byte-reproducible
        for sub in ("a", "b"):
            assert run_cli(tmp_path / sub, "solve-branch", "--alpha", "0.5", "--m", "3",
                           "--s-max", "0.02", "--ds", "0.01") == 0
        first = (tmp_path / "a" / "branch_a0.5_m3.json").read_bytes()
        assert first == (tmp_path / "b" / "branch_a0.5_m3.json").read_bytes()
        report = json.loads(first)
        assert len(report["residual_evals"]) == len(report["jacobian_builds"]) == 2
        # the second point starts from the first point's chord Jacobian, so
        # the leg builds one in all
        assert report["jacobian_builds"][0] >= 1
        assert sum(report["jacobian_builds"]) == 1
        # an analytic Jacobian costs no residual evaluation; 16 central
        # differences would cost 32
        assert all(2 <= evals < 32 for evals in report["residual_evals"])

    def test_evolve_disc(self, tmp_path):
        assert run_cli(tmp_path, "evolve", "--alpha", "0.5", "--shape", "disc",
                       "--t-final", "0.2", "--dt", "0.002", "--nodes", "256",
                       "--frames", "3") == 0
        lines = (tmp_path / "trajectory.jsonl").read_text().splitlines()
        assert len(lines) == 3
        rec = json.loads(lines[-1])
        assert rec["time"] == pytest.approx(0.2)
        assert len(rec["nodes_re"]) == 256

    def test_evolve_reports_the_step_taken(self, tmp_path):
        # --dt only caps the step; here the stability rule sets it
        for sub in ("a", "b"):
            assert run_cli(tmp_path / sub, "evolve", "--alpha", "0.5", "--shape", "ellipse",
                           "--t-final", "0.2", "--dt", "1.0", "--nodes", "128") == 0
        first = (tmp_path / "a" / "evolve_report.json").read_bytes()
        assert first == (tmp_path / "b" / "evolve_report.json").read_bytes()
        rep = json.loads(first)
        assert rep["dt"] <= min(rep["dt_stability"], rep["dt_guard"])
        assert rep["steps"] * rep["dt"] == pytest.approx(0.2, rel=1e-14)

    def test_evolve_steps_at_the_cap_where_it_binds(self, tmp_path):
        # the stability rule (0.038) and the guard (0.045) are far above --dt
        assert run_cli(tmp_path, "evolve", "--alpha", "0.5", "--shape", "ellipse", "--q", "0.3",
                       "--t-final", "0.2", "--dt", "0.002", "--nodes", "256",
                       "--frames", "3") == 0
        rep = json.loads((tmp_path / "evolve_report.json").read_text())
        assert 0.002 < min(rep["dt_stability"], rep["dt_guard"])
        assert (rep["steps"], rep["dt"]) == (100, 0.002)

    @pytest.mark.parametrize("argv", NON_FINITE_ARGS, ids=" ".join)
    def test_non_finite_float_exits_2(self, tmp_path, capsys, argv):
        assert_config_error(tmp_path, capsys, *argv)

    @pytest.mark.parametrize("argv", BAD_CONFIG_ARGS, ids=" ".join)
    def test_bad_configuration_exits_2(self, tmp_path, capsys, argv):
        assert_config_error(tmp_path, capsys, *argv)

    def test_negative_exponent_notation_is_a_number(self):
        args = cli.build_parser().parse_args(["rigid-check", "--alpha", "0.5", "--s", "-1e-2"])
        assert args.fn is cli.cmd_rigid_check and args.s == -0.01

    def test_evolve_bad_dt_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "evolve", "--alpha", "0.5", "--t-final", "0.1",
                            "--dt", "-1")

    def test_evolve_bad_nodes_exits_2(self, tmp_path, capsys):
        assert_config_error(tmp_path, capsys, "evolve", "--alpha", "0.5", "--t-final", "0.1",
                            "--dt", "0.01", "--nodes", "3")

    @pytest.mark.parametrize("nodes", ["65", "0"])
    def test_rigid_check_bad_nodes_exits_2(self, tmp_path, capsys, nodes):
        assert_config_error(tmp_path, capsys, "rigid-check", "--alpha", "0.5", "--nodes", nodes)

    def test_rigid_check_reports_its_step(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(tmp_path / sub, "rigid-check", "--alpha", "0.5",
                           "--nodes", "256") == 0
        first = (tmp_path / "a" / "rigid_m3.json").read_bytes()
        assert first == (tmp_path / "b" / "rigid_m3.json").read_bytes()
        rep = json.loads(first)
        bound = min(rep["dt_stability"], rep["dt_guard"])
        assert rep["steps"] == math.ceil(rep["quarter_period"] / bound)
        assert rep["dt"] == pytest.approx(rep["quarter_period"] / rep["steps"], rel=1e-15)
        assert rep["dt"] <= bound

    def test_rigid_check_steps_under_the_guard_where_it_binds(self, tmp_path):
        # here the quarter-spacing guard is 0.89 of the stability rule
        assert run_cli(tmp_path, "rigid-check", "--alpha", "0.35", "--m", "4", "--s", "0.1",
                       "--nodes", "256") == 0
        rep = json.loads((tmp_path / "rigid_m4.json").read_text())
        assert rep["dt_guard"] < rep["dt_stability"]
        assert rep["dt"] <= rep["dt_guard"]

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GSQG_OUTPUT_DIR", str(tmp_path / "envdir"))
        assert main(["dispersion", "--alpha", "0.5", "--m-max", "3"]) == 0
        assert (tmp_path / "envdir" / "dispersion.csv").exists()

    def test_programming_error_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(args):
            raise TypeError("bug")
        monkeypatch.setattr(cli, "cmd_dispersion", broken)
        assert run_cli(tmp_path, "dispersion", "--alpha", "0.5") == 3
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert "TypeError: bug" in captured.err and "Traceback" in captured.err

    def test_numerical_error_exits_1(self, tmp_path, monkeypatch, capsys):
        def diverges(args):
            raise NonConvergenceError("residual 1e-3")
        monkeypatch.setattr(cli, "cmd_dispersion", diverges)
        assert run_cli(tmp_path, "dispersion", "--alpha", "0.5") == 1
        assert capsys.readouterr().out.startswith("FAIL NonConvergenceError")

    @pytest.mark.parametrize("argv, line", [
        (("solve-branch", "--alpha", "1", "--m", "3", "--s-max", "0.1", "--ds", "0.05"),
         "WARN RuntimeWarning: critical-case branch solving is experimental"),
        (("evolve", "--alpha", "0.5", "--shape", "vstate", "--m", "9", "--nodes", "64",
          "--t-final", "0.01", "--dt", "0.01", "--frames", "2"),
         "WARN AliasingWarning: grid of size 64 under-resolves order 143"),
    ], ids=["critical-case", "aliasing"])
    def test_a_warning_prints_one_warn_line(self, tmp_path, capsys, argv, line):
        # the critical case warns at both solves of the branch, and prints once
        assert run_cli(tmp_path, *argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(line), err

    def test_warn_lines_print_when_the_command_raises(self, tmp_path, monkeypatch, capsys):
        def warns_then_diverges(args):
            warnings.warn("first", RuntimeWarning)
            warnings.warn("first", RuntimeWarning)
            warnings.warn("second", UserWarning)
            raise NonConvergenceError("residual 1e-3")
        monkeypatch.setattr(cli, "cmd_dispersion", warns_then_diverges)
        assert run_cli(tmp_path, "dispersion", "--alpha", "0.5") == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL NonConvergenceError")
        assert captured.err == "WARN RuntimeWarning: first\nWARN UserWarning: second\n"


@pytest.mark.parametrize("argv, loaded", [
    ((), []),
    (("scan", "--alpha", "0.5", "--m", "3"), []),
    (("scan", "--alpha", "1", "--m", "3"), []),
    (("linearize", "--alpha", "0.5", "--omega", "0.3", "--n-modes", "8"), []),
    (("solve-branch", "--alpha", "0.5", "--m", "3", "--s-max", "0.01", "--ds", "0.01"), []),
    (("dispersion", "--alpha", "0.5"), []),
    (("evolve", "--alpha", "0.5", "--t-final", "0.01", "--dt", "0.01", "--nodes", "64"),
     ["scipy.spatial", "scipy.special"]),
    (("rigid-check", "--alpha", "0.5", "--nodes", "128"), ["scipy.spatial", "scipy.special"]),
    (("verify-integrals", "--alpha", "0.5"), []),
    (("ellipse-test", "--alpha", "0.5", "--Q", "0.5"), []),
], ids=["import", "scan", "scan-alpha1", "linearize", "solve-branch", "dispersion", "evolve",
        "rigid-check", "verify-integrals", "ellipse-test"])
def test_commands_load_only_the_scipy_modules_they_call(tmp_path, argv, loaded):
    if argv:
        argv = ("--output-dir", str(tmp_path), *argv)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, *argv], cwd=tmp_path,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].split() == ["0", *loaded]


def test_rigid_check_repeats_byte_for_byte_under_threaded_blas(tmp_path):
    # two fresh processes on a threaded BLAS write the same report and figure,
    # so the rigid workload's margins move only with the rounds a run fits
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    for sub in ("a", "b"):
        run = subprocess.run([sys.executable, "-m", "gsqg", "--output-dir", str(tmp_path / sub),
                              "rigid-check", "--alpha", "0.97", "--m", "3", "--s", "0.03",
                              "--nodes", "128"], cwd=tmp_path, capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
    for name in ("rigid_m3.json", "rigid_m3.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
