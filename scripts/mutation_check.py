#!/usr/bin/env python3
"""Mutation check: every catalogued mutant of src/ must be caught by its tests.

A mutant is one exact replacement of a text in a file under src/, with
the tests that must catch it. Each is applied in turn to a temporary copy
of src/, tests/ and pyproject.toml, where pytest runs its tests; it is
caught when pytest reports a failed test. The unmutated copy must pass
every listed test first.

Exits 0 when every mutant is caught; 1 on a survivor, on an old text
that does not occur exactly once in its file, or when pytest ends
otherwise than with passed or failed tests (a listed test that is not
found, a mutant that does not import).

Run: python scripts/mutation_check.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "the cycle criterion read after the try, not in its finally",
        "src/redpow/cli.py",
        "    finally:  # the criterion's error wins over the solve's\n",
        "    except BaseException:\n        raise\n    if True:\n",
        ("tests/test_cli.py::test_the_criterion_error_wins_over_a_failed_solve_on_either_thread",),
    ),
    Mutant(
        "the exact re-test also after a balance taken on the exact law",
        "src/redpow/cli.py",
        ' and balance.mode == "float":\n',
        ":\n",
        ("tests/test_cli.py::test_the_exact_law_is_solved_once_when_the_criteria_disagree",),
    ),
    Mutant(
        "a refuted chain keeps the law of its balanced potential",
        "src/redpow/cli.py",
        '        ss, balance = _settled(mc, "float")\n',
        "        pass\n",
        ("tests/test_cli.py::test_a_chain_balanced_within_the_float_tolerance_reports_the_dense_law",),
    ),
    Mutant(
        "the peel removes a walk whose edge two walks cross",
        "src/redpow/cyclespace.py",
        "alone = np.bincount(steps)[steps] == 1",
        "alone = np.bincount(steps)[steps] <= 2",
        ("tests/test_cyclespace.py::test_basis_rejects_a_dependent_set_of_the_right_size",),
    ),
    Mutant(
        "the cycle criterion compares each walk's forward product with itself",
        "src/redpow/ctmc.py",
        "for t in (step, step ^ 1)",
        "for t in (step, step)",
        ("tests/test_ctmc.py",),
    ),
)


def misplaced() -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file."""
    lines = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            lines.append(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return lines


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    # no bytecode cache: a mutant of the same size, written within the same
    # second, would otherwise be read from the previous run's stale .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def _report(what: str, run: subprocess.CompletedProcess) -> None:
    tail = (run.stdout + run.stderr).strip().splitlines()[-15:]
    print(f"{what} (pytest exit {run.returncode}):", *tail, sep="\n  ")


def main() -> int:
    problems = misplaced()
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 1
    with tempfile.TemporaryDirectory(prefix="redpow-mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        every_test = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        run = _pytest(copy, every_test)
        if run.returncode != 0:
            _report("error: the unmutated copy fails the listed tests", run)
            return 1
        status = 0
        for mutant in MUTANTS:
            path = copy / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            run = _pytest(copy, mutant.tests)
            path.write_text(original, encoding="utf-8")
            if run.returncode == 1:
                print(f"caught: {mutant.name}")
            else:
                status = 1
                _report(f"{'SURVIVED' if run.returncode == 0 else 'error'}: {mutant.name}", run)
    print(f"{len(MUTANTS)} mutants, {'all caught' if status == 0 else 'not all caught'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
