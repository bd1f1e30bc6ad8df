"""Rules written once across the package: the line a warning names, and the
caches of the contour-dynamics tables."""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import gsqg
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
    warns, stacklevels = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                warns += [(path.name, fn.name) for _ in _calls(fn, "warnings", "warn")]
        stacklevels += [(path.name, node.lineno) for node in ast.walk(tree)
                        if isinstance(node, ast.keyword) and node.arg == "stacklevel"]
    assert warns == [("geometry.py", "_warn")]
    assert len(stacklevels) == 1
    # contour dynamics caches one table per node count, and rates per (alpha, count)
    tree = ast.parse((SRC / "evolution.py").read_text())
    cached = {fn.name: [arg.arg for arg in fn.args.args] for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef)
              and any("lru_cache" in ast.unparse(dec) for dec in fn.decorator_list)}
    assert cached == {"_tables": ["m"], "_zeta_pair": ["alpha"],
                      "_turning_rates": ["alpha", "m"]}
