"""Run one case the way a user would, time it, and check its output.

CLI cases call ``redpow.cli.main(argv)`` in process with stdout and
stderr captured. Survey rows make the public library calls that
``scripts/basis_survey.py`` makes. Names are looked up on the modules
at call time, so the wrappers of a traced run are seen.

A case fails on an exception, a wrong exit code, a wrong verdict or a
failed output check. It is also *wrong* (the run's ``correct`` turns
false) when the program returned normally with an answer that does not
match the input's construction; an error the program reports and exits
on is a failure, not a wrong answer.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from inputs import Case


@dataclass
class Outcome:
    case: Case
    seconds: float
    failed: bool
    wrong: bool
    error: str
    report_bytes: int


class CheckFailed(Exception):
    """An output disagrees with what the input's construction implies."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def survey_row(redpow, path, k: int) -> dict:
    g = redpow.load_graph(path)
    rp = redpow.build_reduced_power(g, k)
    dec = redpow.decomposition_basis(g, k)
    mcb = redpow.greedy_mcb(rp)
    squares = redpow.tree_square_count(g.num_vertices, k) + redpow.chord_square_count(
        redpow.betti(g), g.num_vertices, k
    )
    return {
        "states": rp.graph.num_vertices,
        "edges": rp.graph.num_edges,
        "base_betti": redpow.betti(g),
        "squares": squares,
        "dec_elements": len(dec.elements),
        "mcb_elements": len(mcb.elements),
        "dec_len": redpow.total_length(dec),
        "mcb_len": redpow.total_length(mcb),
        "certified": dec.certified_minimum,
    }


def run(case: Case, redpow, timed=None) -> Outcome:
    """Execute ``case``; ``timed(case_id, fn)`` may wrap the call (the tracer does)."""
    if case.command == "survey":
        call = lambda: survey_row(redpow, case.graph, case.k)  # noqa: E731
    else:
        call = lambda: redpow.cli.main(case.argv)  # noqa: E731
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = timed(case.id, call) if timed else call()
    except (Exception, SystemExit) as exc:
        seconds = perf_counter() - t0
        return Outcome(case, seconds, True, False, f"{type(exc).__name__}: {exc}", 0)
    seconds = perf_counter() - t0
    report_bytes = sum(p.stat().st_size for p in (case.out, case.dot) if p and p.exists())
    try:
        _check(case, result, out.getvalue())
    except Exception as exc:  # any check that cannot complete is a failed check
        exit_error = result == 1 and case.command != "survey"
        text = err.getvalue().strip() if exit_error else f"{type(exc).__name__}: {exc}"
        return Outcome(case, seconds, True, not exit_error, text, report_bytes)
    finally:
        for p in (case.out, case.dot):
            if p is not None and p.exists():
                p.unlink()
    return Outcome(case, seconds, False, False, "", report_bytes)


def _check(case: Case, result, stdout: str) -> None:
    x = case.expect
    if case.command == "survey":
        _check_survey(x, result)
        return
    want = x.get("exit", 0)
    _expect(result == want, f"exit code {result}, expected {want}")
    doc = json.loads(case.out.read_text())
    if case.command == "check-reversibility":
        _check_reversibility(x, doc)
    elif case.command == "power":
        _expect(f"states={x['states']} (formula {x['states']})" in stdout, "state count")
        _expect(f"edges={x['edges']} (formula {x['edges']})" in stdout, "edge count")
        _expect(len(doc["vertices"]) == x["states"], "power --out vertex count")
        _expect(len(set(doc["vertices"])) == x["states"], "power --out labels not distinct")
        _expect(len(doc["edges"]) == x["edges"], "power --out edge count")
        dot = case.dot.read_text().splitlines()
        _expect(len(dot) == x["states"] + x["edges"] + 2, "power --dot line count")
        if x["cross_check"]:
            _expect("cross-check: quotient of the Cartesian power agrees" in stdout,
                    "product/quotient cross-check did not run or did not agree")
    elif case.command == "mcb":
        _expect(doc["kind"] == "decomposition", f"basis kind {doc['kind']}")
        _expect(doc["element_count"] == x["betti"] == len(doc["elements"]),
                f"element_count {doc['element_count']}, betti of the power {x['betti']}")
        _expect(doc["certified_minimum"] == x["triangle_free"],
                "certified_minimum does not match triangle-freeness of the base")
        _expect(doc["total_length"] == sum(e["length"] for e in doc["elements"]), "total_length")
    elif case.command == "verify-squares":
        _expect(doc["passed"] is True, "verify-squares did not pass")
        _expect(doc["betti_power"] == x["betti"], "betti_power")
        _expect("square space: PASS" in stdout, "verify-squares verdict line")


def _check_reversibility(x: dict, doc: dict) -> None:
    _expect(doc["states"] == x["states"], f"states {doc['states']}, expected {x['states']}")
    _expect(doc["reversible"] is x["reversible"], "wrong verdict")
    kol = doc["kolmogorov"]
    _expect(kol["cycles_checked"] == x["cycles"], "cycles checked != betti of the power")
    _expect(kol["passed"] is x["reversible"], "cycle criterion verdict")
    _expect(not kol["violations"] if x["reversible"] else bool(kol["violations"]),
            "violation list does not match the verdict")
    _expect(doc["detailed_balance"]["balanced"] is x["reversible"], "detailed balance verdict")
    ss = doc["steady_state"]
    _expect(ss["mode"] == x["mode"], "steady-state mode")
    probs = ss["probabilities"]
    _expect(len(probs) == x["states"], "steady-state length")
    if x["mode"] == "exact":
        pi = [Fraction(p) for p in probs]
        _expect(sum(pi) == 1 and min(pi) > 0, "exact steady state is not a distribution")
    else:
        _expect(abs(sum(probs) - 1.0) < 1e-8 and min(probs) > 0,
                "float steady state is not a distribution")


def _check_survey(x: dict, row: dict) -> None:
    _expect(row["states"] == x["states"] and row["edges"] == x["edges"], "power size")
    _expect(row["dec_elements"] == row["mcb_elements"] == x["betti"], "basis size != betti")
    _expect(row["squares"] == x["betti"] - row["base_betti"], "square count")
    _expect(row["certified"] == x["triangle_free"], "certified_minimum")
    if x["triangle_free"]:
        _expect(row["dec_len"] == row["mcb_len"], "decomposition basis is not minimum")
    else:
        # greedy picks every independent triangle of the power; the
        # decomposition keeps only the base MCB's, so it is strictly longer
        _expect(row["dec_len"] > row["mcb_len"], "no length gap on a base with triangles")
