import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import gsqg.cli as cli
from gsqg.cli import main
from gsqg.continuation import NonConvergenceError
from gsqg.output import format_float, json_dumps, write_csv, write_curves_svg


class TestFormatting:
    def test_json_significant_digits(self):
        text = json_dumps({"x": 1.0 / 3.0})
        assert text == '{"x": 0.33333333333333331}'
        assert json.loads(text)["x"] == 1.0 / 3.0   # round-trips exactly

    def test_csv_digits(self):
        assert format_float(math.pi, 12) == "3.14159265359"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            json_dumps({"x": float("nan")})

    def test_nested_structures(self):
        text = json_dumps({"a": [1, 2.5, None], "b": {"c": True}, "d": "q\"uote"})
        assert json.loads(text) == {"a": [1, 2.5, None], "b": {"c": True}, "d": 'q"uote'}

    def test_numpy_values(self):
        text = json_dumps({"v": np.arange(3, dtype=float), "n": np.int64(4)})
        assert json.loads(text) == {"v": [0.0, 1.0, 2.0], "n": 4}

    def test_csv_writer(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "2,0.333333333333"

    def test_svg_is_valid_xml(self, tmp_path):
        theta = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        p = write_curves_svg(tmp_path / "c.svg", [np.exp(1j * theta)], ["disc"])
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("path") for child in root)


def run_cli(tmp_path, *args):
    return main(["--output-dir", str(tmp_path), *args])


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

    def test_invalid_alpha_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "dispersion", "--alpha", "1.5") == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "dispersion", "--alpho", "0.5") == 2

    def test_determinism(self, tmp_path):
        run_cli(tmp_path / "a", "dispersion", "--alpha", "0.5", "--m-max", "12",
                "--format", "json")
        run_cli(tmp_path / "b", "dispersion", "--alpha", "0.5", "--m-max", "12",
                "--format", "json")
        a = (tmp_path / "a" / "dispersion.json").read_bytes()
        b = (tmp_path / "b" / "dispersion.json").read_bytes()
        assert a == b

    def test_verify_integrals(self, tmp_path):
        assert run_cli(tmp_path, "verify-integrals", "--alpha", "0.5",
                       "--n-max", "4") == 0
        report = json.loads((tmp_path / "verify_integrals.json").read_text())
        assert max(report["max_relative_error"].values()) < 1e-8

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

    def test_ellipse_test(self, tmp_path):
        assert run_cli(tmp_path, "ellipse-test", "--alpha", "0.5", "--Q", "0.3",
                       "--omega-samples", "5") == 0
        report = json.loads((tmp_path / "ellipse_test.json").read_text())
        assert report["min_abs_g4"] > 0.002
        assert report["moment_ratio_gap"] < 1e-10
        # residual-field exports ride along
        resid = json.loads((tmp_path / "ellipse_residual.json").read_text())
        assert abs(resid["sine_coeffs"][3]) > 0.002
        lines = (tmp_path / "ellipse_residual.csv").read_text().splitlines()
        assert lines[0] == "angle,residual" and len(lines) == 257

    def test_ellipse_bad_q_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "ellipse-test", "--alpha", "0.5", "--Q", "1.2") == 2

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

    def test_solve_branch_reports_solver_work(self, tmp_path):
        # per-point counts are deterministic, so the report stays byte-reproducible
        for sub in ("a", "b"):
            assert run_cli(tmp_path / sub, "solve-branch", "--alpha", "0.5", "--m", "3",
                           "--s-max", "0.02", "--ds", "0.01") == 0
        first = (tmp_path / "a" / "branch_a0.5_m3.json").read_bytes()
        assert first == (tmp_path / "b" / "branch_a0.5_m3.json").read_bytes()
        report = json.loads(first)
        assert len(report["residual_evals"]) == len(report["jacobian_builds"]) == 2
        assert all(builds >= 1 for builds in report["jacobian_builds"])
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

    def test_evolve_bad_dt_exits_2(self, tmp_path):
        assert run_cli(tmp_path, "evolve", "--alpha", "0.5", "--t-final", "0.1",
                       "--dt", "-1") == 2

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
