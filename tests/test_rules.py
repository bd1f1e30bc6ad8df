"""Rules written once across the package: the line a warning names, the m-fold
ladder, the sampling of a boundary into a contour, and the caches of the
contour-dynamics tables."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsqg
import gsqg.evolution as ev
from gsqg.continuation import continue_branch, solve_vstate
from gsqg.geometry import FourierBoundary, UnitGrid, eval_map
from gsqg.kernels import functional_G
from gsqg.linearization import gateaux_derivative, monomial_derivatives

SRC = Path(gsqg.__file__).parent
ALIASED = FourierBoundary(np.zeros(40))      # order 39 needs 80 nodes
DISC = FourierBoundary.identity()
DIRECTION = FourierBoundary(np.eye(41)[40])  # b_40 alone


@pytest.mark.parametrize("call", [
    lambda: solve_vstate(1.0, 3, 0.01),
    lambda: continue_branch(1.0, 3, 0.02, 0.01),
    lambda: eval_map(ALIASED, UnitGrid(64)),
    lambda: functional_G(0.3, ALIASED, 0.5, UnitGrid(64)),
    lambda: monomial_derivatives(DISC, [40], 0.3, 0.5, UnitGrid(64)),
    lambda: gateaux_derivative(DISC, DIRECTION, 0.3, 0.5, UnitGrid(64)),
], ids=["solve_vstate", "continue_branch", "eval_map", "functional_G",
        "monomial_derivatives", "gateaux_derivative"])
def test_every_warning_names_the_callers_line(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert caught
    assert {Path(w.filename).resolve() for w in caught} == {Path(__file__).resolve()}


def _calls(tree: ast.AST, owner: str, attr: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == attr
            and isinstance(node.func.value, ast.Name) and node.func.value.id == owner]


def test_rules_stay_written_once():
    # one helper warns, at a line it finds itself; nothing counts frames by hand
    # and one function slices the m-fold ladder [m - 1::m] out of a coefficient row
    warns, stacklevels, ladders = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                warns += [(path.name, fn.name) for _ in _calls(fn, "warnings", "warn")]
                ladders += [(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Slice) and node.step is not None
                            and ast.unparse(node).endswith(f" - 1::{ast.unparse(node.step)}")]
        stacklevels += [(path.name, node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.keyword) and node.arg == "stacklevel"]
    assert warns == [("geometry.py", "_warn")]
    assert len(stacklevels) == 1
    assert ladders == [("geometry.py", "embed_mfold")]
    # contour dynamics caches one table per node count, and rates per (alpha, count)
    tree = ast.parse((SRC / "evolution.py").read_text())
    cached = {fn.name: [arg.arg for arg in fn.args.args] for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and any("lru_cache" in ast.unparse(dec) for dec in fn.decorator_list)}
    assert cached == {"_tables": ["m"], "_zeta_pair": ["alpha"],
                      "_turning_rates": ["alpha", "m"]}
    # a contour samples a boundary in one constructor, the disc's included
    state_cls = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef) and node.name == "ContourState")
    samplers = [fn.name for fn in state_cls.body if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.Name) and node.id in ("eval_map", "UnitGrid")
                        for node in ast.walk(fn))]
    assert samplers == ["from_boundary"]


def test_redistribute_forms_only_the_tables_of_its_nodes():
    state = ev.ContourState.from_boundary(FourierBoundary.ellipse(0.2), 64, 0.5)
    ev._tables.cache_clear()
    ev.redistribute(state)
    assert ev._tables.cache_info().currsize == 1
