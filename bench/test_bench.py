"""Tests of the benchmark harness itself: `python3 -m pytest bench`."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gsqg.cli  # noqa: E402
import gsqg.continuation  # noqa: E402
import gsqg.geometry  # noqa: E402
import gsqg.kernels  # noqa: E402
import run as bench_run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from worker import run_round  # noqa: E402
from workloads import Outcome, Task, make_rounds  # noqa: E402


def _disc_residual(out: Path) -> Outcome:
    fld = gsqg.kernels.functional_G(0.3, gsqg.geometry.FourierBoundary.identity(),
                                    0.5, gsqg.geometry.UnitGrid(64))
    return Outcome(fld.sup_norm < 1e-12)


def _crash(out: Path) -> Outcome:
    raise FileNotFoundError("report was never written")


STUB_TASKS = [
    Task("kernel raises", "stub", "linearization", _disc_residual),
    Task("gate fails", "stub", "continuation",
         lambda out: Outcome(False, {"gap": -0.5}, "gap too large")),
    Task("benchmark code crashes", "stub", "evolution", _crash),
    Task("passes", "stub", "kernels", lambda out: Outcome(True, {"gap": 2.0, "drift": 3.0})),
]


@pytest.fixture
def broken_s_phi(monkeypatch):
    def s_phi(*args, **kwargs):
        raise gsqg.kernels.SelfIntersectionError("stubbed failure")
    monkeypatch.setattr(gsqg.kernels, "s_phi", s_phi)


def test_failed_tasks_count_and_the_round_carries_on(tmp_path, broken_s_phi):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_round(STUB_TASKS, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert (result["attempted"], result["failed"]) == (4, 3)
    # the raising layer is charged when a gsqg span ended in an exception,
    # else the task's own layer
    assert [t["layer"] for t in result["tasks"]] == \
        ["kernels", "continuation", "evolution", None]

    record = {"rounds": [result], "setup_samples": [{"setup_ref_s": 0.5}],
              "peak_rss_mb": 1.0}
    metrics = bench_run.end_to_end(record)
    assert metrics["pass_ratio"][0] == 0.25
    # median per check of a kind of task (gap: -0.5 and 2.0), smallest over checks
    assert metrics["tol_margin_digits"][0] == 0.75


def test_untraced_failures_are_charged_to_the_task_layer(tmp_path, broken_s_phi):
    result = run_round(STUB_TASKS, tmp_path)
    assert [t["layer"] for t in result["tasks"]] == \
        ["linearization", "continuation", "evolution", None]


def test_install_wraps_every_import_site_and_uninstall_restores():
    original = gsqg.kernels.functional_G
    solve = gsqg.continuation.solve_vstate
    tracer = Tracer()
    tracer.install()
    try:
        assert gsqg.continuation.functional_G is gsqg.kernels.functional_G
        assert gsqg.kernels.functional_G.__wrapped__ is original
        assert gsqg.cli.solve_vstate.__wrapped__ is solve
    finally:
        tracer.uninstall()
    assert gsqg.continuation.functional_G is original
    assert gsqg.cli.solve_vstate is solve


def test_self_time_counts_nested_spans_of_one_layer_once():
    spans = [["kernels.functional_G", "kernels", 0.0, 10.0, -1, 0, None, 64],
             ["kernels.s_phi", "kernels", 1.0, 9.0, 0, 0, None, 64],
             ["geometry.eval_map", "geometry", 2.0, 3.0, 1, 0, None, 0]]
    metrics = layer_metrics(spans, {})
    assert metrics["kernels.calls"][0] == 1
    assert metrics["kernels.self_s"][0] == 9.0
    assert metrics["geometry.self_s"][0] == 1.0
    assert metrics["kernels.ms_per_call.g64"][0] == 10_000.0
    assert metrics["kernels.grid_pairs"][0] == 64 ** 2


def test_the_same_seed_gives_the_same_inputs():
    names = [[t.name for t in r] for r in make_rounds("linear", 3, 2)]
    assert names == [[t.name for t in r] for r in make_rounds("linear", 3, 2)]
    assert names != [[t.name for t in r] for r in make_rounds("linear", 4, 2)]
