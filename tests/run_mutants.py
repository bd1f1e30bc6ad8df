"""Apply each mutant of tests/mutants.json to a copy of the tree and run its tests.

    python3 tests/run_mutants.py            # every mutant
    python3 tests/run_mutants.py NAME ...   # the named mutants only

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, and the tests expected to fail.  The named tests first
run on an unchanged copy, where they must pass; then each mutant is
applied to a fresh copy of src/ and tests/ in a temporary directory, and
only its tests run.  A mutant is killed when every one of its tests fails
(a parametrized test fails when any of its cases does, and a test class
when any of its tests does); a test that passes is reported by name.  A
surviving mutant is a finding about the tests: mend the tests, not the
mutant.  The exit code is 0 when every mutant is killed.  Not part of the
tier-1 suite: each mutant costs one pytest start; its id matching is
tested in tests/test_run_mutants.py.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_named(report: str, tests: list[str]) -> set[str]:
    """The named tests under which some FAILED id of a pytest -rf report lies.

    A name covers the id equal to it, its parametrized cases (name[...])
    and, for a module or a class, the tests inside it (name::...).
    """
    failed = [line.split()[1] for line in report.splitlines() if line.startswith("FAILED ")]
    return {test for test in tests
            if any(f == test or f.startswith((test + "[", test + "::")) for f in failed)}


def failed_tests(tree: Path, tests: list[str]) -> set[str] | None:
    """The named tests that fail on tree, or None when pytest cannot run them."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
           *tests]
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        return None
    return failed_named(run.stdout, tests)


def apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: the old text must occur once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]))


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    if names:
        unknown = set(names) - {m["name"] for m in mutants}
        if unknown:
            raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m["name"] in names]
    with tempfile.TemporaryDirectory(prefix="gsqg-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({t for m in mutants for t in m["tests"]})
        if failed_tests(base, tests) != set():
            print("the named tests do not all pass on the unchanged tree")
            return 1
        survivors = 0
        for mutant in mutants:
            tree = Path(tmp) / mutant["name"]
            copy_tree(tree)
            apply(tree, mutant)
            failed = failed_tests(tree, mutant["tests"])
            if failed is None:
                verdict = "SURVIVED: pytest could not run the tests"
            elif passed := [t for t in mutant["tests"] if t not in failed]:
                verdict = "SURVIVED: still passes " + ", ".join(passed)
            else:
                verdict = f"killed by all {len(failed)} tests"
            survivors += not verdict.startswith("killed")
            print(f"{mutant['name']:24s} {verdict}")
            shutil.rmtree(tree)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
