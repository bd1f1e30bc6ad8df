"""The mutation runner: its matching of pytest FAILED ids to the tests a mutant names,
and every mutant of tests/mutants.json still applying to the tree."""

import json

from run_mutants import MUTANTS, ROOT, failed_named

REPORT = """\
..F.F [100%]
=========================== short test summary info ============================
FAILED tests/test_a.py::test_plain - AssertionError: assert 1 == 2
FAILED tests/test_a.py::test_cases[0.5-3] - AssertionError
FAILED tests/test_b.py::TestVelocity::test_rate
FAILED tests/test_b.py::TestVelocityExtra::test_other
2 failed, 3 passed in 0.10s
"""


def test_function_ids_match_exactly():
    assert failed_named(REPORT, ["tests/test_a.py::test_plain"]) == {"tests/test_a.py::test_plain"}
    # a name that only prefixes a failed id is not that test
    assert failed_named(REPORT, ["tests/test_a.py::test_pla"]) == set()


def test_parametrized_test_fails_with_any_case():
    assert failed_named(REPORT, ["tests/test_a.py::test_cases"]) == {"tests/test_a.py::test_cases"}
    assert failed_named(REPORT, ["tests/test_a.py::test_cases[0.5-3]"]) == {
        "tests/test_a.py::test_cases[0.5-3]"}
    assert failed_named(REPORT, ["tests/test_a.py::test_cases[0.5-4]"]) == set()


def test_class_fails_with_any_method():
    named = ["tests/test_b.py::TestVelocity", "tests/test_b.py::TestDisc", "tests/test_b.py"]
    assert failed_named(REPORT, named) == {"tests/test_b.py::TestVelocity", "tests/test_b.py"}
    # a class whose name prefixes a failed class is not that class
    other = "FAILED tests/test_b.py::TestVelocityExtra::test_other\n"
    assert failed_named(other, ["tests/test_b.py::TestVelocity"]) == set()


def test_only_failed_lines_count():
    passed = "tests/test_c.py::test_ok PASSED\nERROR tests/test_c.py::test_err\n"
    assert failed_named(passed, ["tests/test_c.py::test_ok", "tests/test_c.py::test_err"]) == set()


def test_every_mutant_still_applies():
    # an edit under a mutant's old text would make run_mutants.py stop on it
    problems = []
    for mutant in json.loads(MUTANTS.read_text()):
        name, text = mutant["name"], (ROOT / mutant["file"]).read_text()
        if text.count(mutant["old"]) != 1:
            problems.append(f"{name}: old text occurs {text.count(mutant['old'])} times")
        if mutant["new"] == mutant["old"]:
            problems.append(f"{name}: new text equals old text")
        problems += [f"{name}: no file for {test}" for test in mutant["tests"]
                     if not (ROOT / test.split("::")[0]).is_file()]
    assert problems == []
