"""The mutation runner's matching of pytest FAILED ids to the tests a mutant names."""

from run_mutants import failed_named

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
