"""The two scripts run end to end and print the verdicts they document."""

from __future__ import annotations

import runpy
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


def test_basis_survey_gap_only_with_triangles(monkeypatch, capsys):
    rows = [line for line in _run(monkeypatch, capsys, "basis_survey.py") if " k=" in line]
    assert len(rows) == 14
    for row in rows:
        name = row.split()[0]
        mark = " > " if name in ("K3", "K4", "house") else " = "
        assert mark in row, row
