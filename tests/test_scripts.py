"""The example scripts print the verdicts they document; the mutation catalogue applies."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(monkeypatch, capsys, name: str, *args: str) -> list[str]:
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_coupling_case_study_verdicts_agree(monkeypatch, capsys):
    rows = [line for line in _run(monkeypatch, capsys, "coupling_case_study.py") if " lam=" in line]
    assert len(rows) == 7
    assert all("agree=yes" in row for row in rows)


@pytest.mark.parametrize("k", [1, 4])
def test_coupling_case_study_verdicts_agree_at_one_and_four_tokens(monkeypatch, capsys, k):
    lines = _run(monkeypatch, capsys, "coupling_case_study.py", "--k", str(k))
    assert lines[0].startswith(f"5-state ring, k={k}: ")
    rows = [line for line in lines if " lam=" in line]
    assert len(rows) == 7
    assert all("agree=yes" in row for row in rows)


@pytest.mark.parametrize(
    "k, message",
    [
        ("0", "error: model has k = 0, not at least 1"),
        ("5000", "error: model has 26093786468751 states, over the budget of 5000"),
    ],
)
def test_coupling_case_study_refuses_a_bad_k_before_building(monkeypatch, capsys, k, message):
    from redpow import cli, ctmc, squares

    def refuse(base, k):
        raise AssertionError(f"build_reduced_power called with k={k}")

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    with pytest.raises(SystemExit) as info:
        _run(monkeypatch, capsys, "coupling_case_study.py", "--k", k)
    assert info.value.code == message  # printed to stderr, exit status 1
    assert capsys.readouterr().out == ""


def test_coupling_case_study_bad_k_exits_1_with_an_error_line_and_no_traceback():
    import redpow

    env = {**os.environ, "PYTHONPATH": str(Path(redpow.__file__).parents[1])}
    run = subprocess.run([sys.executable, str(SCRIPTS / "coupling_case_study.py"), "--k", "-3"],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "error: model has k = -3, not at least 1\n"


def test_basis_survey_gap_only_with_triangles(monkeypatch, capsys):
    rows = [line for line in _run(monkeypatch, capsys, "basis_survey.py") if " k=" in line]
    assert len(rows) == 14
    for row in rows:
        name = row.split()[0]
        mark = " > " if name in ("K3", "K4", "house") else " = "
        assert mark in row, row


def test_every_mutant_text_occurs_once_and_names_tests_that_exist():
    """The mutation catalogue still applies to src/: each old text occurs exactly once."""
    catalogue = runpy.run_path(str(SCRIPTS / "mutation_check.py"))
    assert catalogue["misplaced"]() == []
    root = SCRIPTS.parent
    for mutant in catalogue["MUTANTS"]:
        assert mutant.old != mutant.new and mutant.file.startswith("src/")
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert (root / path).is_file(), test
            assert not name or f"def {name}(" in (root / path).read_text(encoding="utf-8"), test
