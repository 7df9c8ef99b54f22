"""Command-line interface: subcommands, files, exit codes."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from redpow import (
    MasterChain,
    ModelError,
    RedpowError,
    ReducedPowerGraph,
    SolverError,
    build_reduced_power,
    cli,
    detailed_balance_check,
    graph_from_dict,
    kolmogorov_check,
    load_graph,
    load_model,
    model_from_dict,
    model_to_dict,
    reversible_steady_state,
    single_automaton_check,
    steady_state,
)
from redpow.cli import main

PENTAGON = {
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"]],
}


def pentagon_model(lam="32", couplings=None):
    rates = {
        "a->b": {"base": lam},
        "b->a": {"base": "2"},
        "b->c": {"base": "1"},
        "c->b": {"base": "2"},
        "c->d": {"base": "1"},
        "d->c": {"base": "2"},
        "d->e": {"base": "1"},
        "e->d": {"base": "2"},
        "e->a": {"base": "1"},
        "a->e": {"base": "2"},
    }
    if couplings:
        rates["a->b"]["coupling"] = couplings
    return {"graph": PENTAGON, "k": 3, "rates": rates}


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(PENTAGON))
    return path


def test_power_writes_graph_and_dot(tmp_path, graph_file, capsys):
    out = tmp_path / "p.json"
    dot = tmp_path / "p.dot"
    code = main(["power", "--graph", str(graph_file), "--k", "2",
                 "--out", str(out), "--dot", str(dot)])
    assert code == 0
    captured = capsys.readouterr()
    assert "states=15 (formula 15)" in captured.out
    assert "edges=25 (formula 25)" in captured.out
    assert "cross-check: quotient" in captured.out
    rp_graph = load_graph(out)
    assert rp_graph.num_vertices == 15
    assert rp_graph.num_edges == 25
    assert "a^2" in rp_graph.labels
    assert dot.read_text().startswith("graph G {")


def test_power_skips_crosscheck_over_budget(tmp_path, graph_file, capsys):
    # the pentagon at k = 9 is 715 states; its 5^9 product vertices are over 10^6
    code = main(["power", "--graph", str(graph_file), "--k", "9"])
    assert code == 0
    assert "cross-check: skipped (5^9 states exceed budget 1000000)" in capsys.readouterr().out


def test_power_crosscheck_compares_annotations(graph_file, capsys, monkeypatch):
    quotient = cli.quotient_by_symmetry

    def one_annotation_wrong(power, base, k):
        rp = quotient(power, base, k)
        wrong = (rp.annotations[1],) + rp.annotations[1:]
        return ReducedPowerGraph(rp.base, rp.k, rp.states, rp.graph, wrong)

    monkeypatch.setattr("redpow.cli.quotient_by_symmetry", one_annotation_wrong)
    assert main(["power", "--graph", str(graph_file), "--k", "2"]) == 1
    assert "cross-check disagrees" in capsys.readouterr().err


def test_power_rejects_disconnected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}))
    code = main(["power", "--graph", str(bad), "--k", "2"])
    assert code == 1
    assert "graph must be connected" in capsys.readouterr().err


def test_power_rejects_bad_k(graph_file, capsys):
    assert main(["power", "--graph", str(graph_file), "--k", "0"]) == 1
    assert "--k must be a positive integer" in capsys.readouterr().err


def test_mcb_writes_basis(tmp_path, graph_file, capsys):
    out = tmp_path / "basis.json"
    code = main(["mcb", "--graph", str(graph_file), "--k", "3", "--out", str(out)])
    assert code == 0
    assert "certified_minimum=true" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["kind"] == "decomposition"
    assert doc["element_count"] == 41
    assert doc["total_length"] == 165
    assert doc["certified_minimum"] is True
    tags = {el["tag"] for el in doc["elements"]}
    assert tags == {"embedded", "tree-square", "chord-square"}
    emb = [el for el in doc["elements"] if el["tag"] == "embedded"]
    assert emb[0]["vertices"] == ["a^3", "a^2b", "a^2c", "a^2d", "a^2e"]


def test_mcb_triangle_not_certified(tmp_path, capsys):
    tri = tmp_path / "k3.json"
    tri.write_text(
        json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]})
    )
    code = main(["mcb", "--graph", str(tri), "--k", "2"])
    assert code == 0
    assert "certified_minimum=false" in capsys.readouterr().out


def test_mcb_k1_falls_back_to_greedy(graph_file, capsys):
    code = main(["mcb", "--graph", str(graph_file), "--k", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kind=greedy-mcb" in out
    assert "total_length=5" in out


def test_mcb_root_option(tmp_path, graph_file):
    out = tmp_path / "b.json"
    code = main(["mcb", "--graph", str(graph_file), "--k", "2", "--root", "c",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["total_length"] == 45


def test_verify_squares_pass(tmp_path, graph_file, capsys):
    out = tmp_path / "report.json"
    code = main(["verify-squares", "--graph", str(graph_file), "--k", "3",
                 "--out", str(out)])
    assert code == 0
    assert "square space: PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["tree_squares"] == 26
    assert doc["chord_squares"] == 14


def test_check_reversibility_pass(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(pentagon_model()))
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--exact",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict: reversible" in text
    doc = json.loads(out.read_text())
    assert doc["reversible"] is True
    assert doc["kolmogorov"]["cycles_checked"] == 41
    assert doc["steady_state"]["mode"] == "exact"
    assert doc["detailed_balance"]["balanced"] is True


def test_check_reversibility_fail(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(pentagon_model(couplings={"b": "1", "c": "2", "a": "1", "d": "1", "e": "1"}))
    )
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--out", str(out)])
    assert code == 2
    text = capsys.readouterr().out
    assert "verdict: not reversible" in text
    doc = json.loads(out.read_text())
    assert doc["reversible"] is False
    assert doc["kolmogorov"]["violations"]
    for v in doc["kolmogorov"]["violations"]:
        assert v["forward"] != v["backward"]


def test_check_reversibility_k1(tmp_path, capsys):
    doc = pentagon_model()
    doc["k"] = 1
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    code = main(["check-reversibility", "--model", str(model), "--exact"])
    assert code == 0
    assert "verdict: reversible" in capsys.readouterr().out


def test_check_single(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(pentagon_model()))
    assert main(["check-single", "--model", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(pentagon_model(lam="33")))
    out = tmp_path / "single.json"
    assert main(["check-single", "--model", str(bad), "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["passed"] is False
    assert doc["violations"]


def test_bad_model_file_exits_1(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"graph": PENTAGON, "k": 3, "rates": {}}))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert "missing rate" in capsys.readouterr().err


def test_unknown_root_label(tmp_path, graph_file, capsys):
    assert main(["mcb", "--graph", str(graph_file), "--k", "2", "--root", "z"]) == 1
    assert "unknown vertex" in capsys.readouterr().err


def edge_model(a_to_b: str, b_to_a: str, k: int = 1) -> dict:
    """One edge a-b: at k = 1, pi_b / pi_a = a_to_b / b_to_a, which may leave the float range."""
    return {"graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]}, "k": k,
            "rates": {"a->b": {"base": a_to_b}, "b->a": {"base": b_to_a}}}


def test_check_reversibility_float_falls_back_to_exact_potential(tmp_path, capsys, solve_threads):
    # Potential rates i->j = phi(j) with one coupling shared by every
    # vertex: tokens move independently, so the chain is reversible. Its
    # stationary law spans so many orders of magnitude that the dense
    # float law misses the float detailed-balance test's 1e-9 relative
    # tolerance on two edges; the float tree potential passes it on every
    # edge and settles the chain with no dense solve.
    phi = dict(zip("abcde", [
        "630472594943/89429611671", "36504427417/1729493974",
        "158915730057/647091878453", "810716869869/349495062578",
        "24782561914/538042141349",
    ]))
    shared = {lab: "218192565591/960912280771" for lab in "abcde"}
    rates = {}
    for src, dst in PENTAGON["edges"]:
        for a, b in ((src, dst), (dst, src)):
            rates[f"{a}->{b}"] = {"base": phi[b], "coupling": shared}
    doc = {"graph": PENTAGON, "k": 5, "rates": rates}
    g, k, spec = model_from_dict(doc)
    mc = MasterChain(build_reduced_power(g, k), spec)
    assert len(detailed_balance_check(steady_state(mc, "float"), mc).violations) == 2
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--out", str(out)])
    assert code == 0
    assert "detailed balance (float): pass" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["reversible"] is True
    assert doc["steady_state"]["mode"] == "float"
    assert doc["detailed_balance"] == {"balanced": True, "mode": "float", "violations": []}
    assert solve_threads == []
    # pi_b = 1e-316 is subnormal, too coarse for the float balance test on
    # the potential and on the dense law alike: the dense law is reported
    # and the exact law settles the balance
    model.write_text(json.dumps(edge_model("1e-158", "1e158")))
    code = main(["check-reversibility", "--model", str(model), "--out", str(out)])
    assert code == 0
    assert "detailed balance (exact): pass" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["reversible"] is True
    assert doc["steady_state"]["mode"] == "float"
    assert doc["detailed_balance"] == {"balanced": True, "mode": "exact", "violations": []}
    assert solve_threads == [("float", True), ("exact", True)]


def test_check_reversibility_float_rejects_rates_outside_the_float_range(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(pentagon_model(lam="1e400")))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: rate a->b in state 'a^3' is about 1e+400, outside the float range; "
        "rerun with --exact\n"
    )
    assert main(["check-reversibility", "--model", str(model), "--exact"]) == 2
    assert "verdict: not reversible" in capsys.readouterr().out


@pytest.mark.parametrize("exact", [False, True])
def test_check_reversibility_settles_a_long_reversible_path_by_its_tree_potential(
    tmp_path, capsys, exact
):
    # pi_i halves along the path, so the float law underflows to zero long
    # before the far end, and 1100 states are over the exact solve's limit
    labels = [f"v{i}" for i in range(1100)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "2"} for a, b in edges})
    model, out = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps({"graph": {"vertices": labels, "edges": edges}, "k": 1,
                                 "rates": rates}))
    argv = ["check-reversibility", "--model", str(model), "--out", str(out)]
    assert main(argv + ["--exact"] * exact) == 0
    assert "detailed balance (exact): pass" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["reversible"] is True
    assert report["steady_state"]["mode"] == "exact"
    pi = [Fraction(p) for p in report["steady_state"]["probabilities"]]
    assert sum(pi) == 1 and all(2 * q == p for p, q in zip(pi, pi[1:]))


def test_check_reversibility_exact_keeps_the_state_limit_on_an_irreversible_chain(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr("redpow.ctmc._EXACT_STATE_LIMIT", 10)
    model = nearly_reversible_model(tmp_path)
    assert main(["check-reversibility", "--model", str(model), "--exact"]) == 1
    assert capsys.readouterr().err == "error: exact mode supports up to 10 states, got 15\n"


def test_graph_file_with_a_list_endpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vertices": ["a", "b"], "edges": [[["a"], "b"]]}))
    assert main(["power", "--graph", str(bad), "--k", "2"]) == 1
    assert "edge entry [['a'], 'b'] must be a pair of labels" in capsys.readouterr().err


def test_check_reversibility_k1_rejects_unknown_root(tmp_path, capsys):
    doc = pentagon_model()
    doc["k"] = 1
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert main(["check-reversibility", "--model", str(model), "--root", "z"]) == 1
    assert capsys.readouterr().err == "error: unknown vertex label 'z'\n"


OVERLAPPING_PATH = {
    "vertices": ["a", "bc", "ab", "c"],
    "edges": [["a", "bc"], ["bc", "ab"], ["ab", "c"]],
}


def test_power_of_overlapping_labels_passes_the_crosscheck(tmp_path, capsys):
    graph = tmp_path / "path.json"
    graph.write_text(json.dumps(OVERLAPPING_PATH))
    out = tmp_path / "p.json"
    assert main(["power", "--graph", str(graph), "--k", "2", "--out", str(out)]) == 0
    assert "cross-check: quotient of the Cartesian power agrees" in capsys.readouterr().out
    assert {"a*bc", "ab*c"} <= set(load_graph(out).labels)


@pytest.mark.parametrize("coupled", [False, True])
def test_check_reversibility_on_overlapping_labels(tmp_path, capsys, coupled):
    rates = {}
    for src, dst in OVERLAPPING_PATH["edges"]:
        rates[f"{src}->{dst}"] = {"base": "2", "coupling": {"c": "1" if coupled else "0"}}
        rates[f"{dst}->{src}"] = {"base": "3"}
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"graph": OVERLAPPING_PATH, "k": 3, "rates": rates}))
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--exact", "--out", str(out)])
    assert code == (2 if coupled else 0)
    verdict = "not reversible" if coupled else "reversible"
    assert f"verdict: {verdict}\n" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["states"] == 20
    assert doc["detailed_balance"]["balanced"] is not coupled
    violations = doc["kolmogorov"]["violations"]
    assert bool(violations) is coupled
    assert coupled == any("*" in lab for v in violations for lab in v["vertices"])


def test_check_reversibility_k1_builds_one_power(tmp_path, capsys, monkeypatch):
    from redpow import ctmc, squares

    built = []

    def counting(base, k):
        built.append(k)
        return original(base, k)

    original = cli.build_reduced_power
    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", counting)
    doc = pentagon_model(couplings={"c": "1"})
    doc["k"] = 1
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["check-reversibility", "--model", str(model), "--out", str(out)]) == 0
    assert built == [1]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "single-automaton criterion: pass",
        "cycle criterion: pass (1 cycles, 0 violations)",
    ]
    report = json.loads(out.read_text())
    assert report["single_automaton"] == report["kolmogorov"]

    built.clear()
    doc["k"] = 2
    model.write_text(json.dumps(doc))
    assert main(["check-reversibility", "--model", str(model)]) == 2
    assert sorted(built) == [1, 2]


def test_check_reversibility_computes_the_base_mcb_once(tmp_path, capsys, monkeypatch):
    # the single-automaton check (on the k = 1 power, whose graph is the
    # base) and the embedded base cycles of the basis share one greedy MCB
    from redpow import ctmc, cyclespace, squares

    original = cyclespace.greedy_mcb
    bases = []

    def counting(host):
        bases.append(cyclespace.host_graph(host))
        return original(host)

    for module in (cli, ctmc, cyclespace, squares):
        if getattr(module, "greedy_mcb", None) is original:
            monkeypatch.setattr(module, "greedy_mcb", counting)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(pentagon_model(couplings={"c": "1"})))
    out = tmp_path / "report.json"

    def run():
        code = main(["check-reversibility", "--model", str(model), "--out", str(out)])
        return code, capsys.readouterr().out, out.read_bytes()

    cyclespace._base_mcb.cache_clear()
    once = run()
    assert once[0] == 2 and bases == [graph_from_dict(PENTAGON)]
    assert run() == once and len(bases) == 1  # a second run on the same base reuses it
    uncached = cyclespace._base_mcb.__wrapped__
    for module in (ctmc, squares):
        monkeypatch.setattr(module, "_base_mcb", uncached)
    assert run() == once and len(bases) == 3


def test_power_skips_crosscheck_on_comma_labels(tmp_path, capsys):
    graph = tmp_path / "comma.json"
    graph.write_text(json.dumps({"vertices": ["a,1", "b"], "edges": [["a,1", "b"]]}))
    out = tmp_path / "p.json"
    assert main(["power", "--graph", str(graph), "--k", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "states=3 (formula 3) edges=2 (formula 2)\n"
        "cross-check: skipped (base labels contain ',')\n"
    )
    assert captured.err == ""
    assert set(load_graph(out).labels) == {"a,1^2", "a,1b", "b^2"}


def nearly_reversible_model(tmp_path):
    # Every rate is 1 but a->b, which is off by one part in 10^12: the
    # cycle criterion fails exactly, while the float balance test passes
    # under its 1e-9 relative tolerance.
    doc = pentagon_model()
    doc["k"] = 2
    for rate in doc["rates"].values():
        rate["base"] = "1"
    doc["rates"]["a->b"]["base"] = "1000000000001/1000000000000"
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    return model


def test_check_reversibility_float_defers_to_exact_balance_on_a_nearly_reversible_chain(
    tmp_path, capsys
):
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(nearly_reversible_model(tmp_path)),
                 "--out", str(out)])
    assert code == 2
    assert "detailed balance (exact): fail" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["reversible"] is False
    assert report["steady_state"]["mode"] == "float"
    assert report["detailed_balance"]["balanced"] is False
    assert report["detailed_balance"]["mode"] == "exact"


@pytest.mark.parametrize("limit", [None, 10])
def test_check_reversibility_tries_the_tree_potential_once_per_settle(
    tmp_path, capsys, monkeypatch, limit
):
    # the float test passes and the cycle criterion fails, so the exact law
    # settles it; the chain has no tree potential, which one try shows
    from redpow import ctmc

    if limit is not None:
        monkeypatch.setattr(ctmc, "_EXACT_STATE_LIMIT", limit)
    calls = []
    potential = ctmc.reversible_steady_state

    def counted(mc):
        calls.append(1)
        return potential(mc)

    for module in (cli, ctmc):
        monkeypatch.setattr(module, "reversible_steady_state", counted)
    code = main(["check-reversibility", "--model", str(nearly_reversible_model(tmp_path))])
    assert code == (2 if limit is None else 1)
    assert len(calls) == 1
    capsys.readouterr()


def test_check_reversibility_exact_balance_retest_keeps_the_state_limit(
    tmp_path, capsys, monkeypatch
):
    # an irreversible chain has no tree potential, so the re-test needs the
    # exact solve, which refuses chains over its state limit
    monkeypatch.setattr("redpow.ctmc._EXACT_STATE_LIMIT", 10)
    model = nearly_reversible_model(tmp_path)
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: exact mode supports up to 10 states, got 15\n"


def test_check_reversibility_refuses_over_budget_before_building(tmp_path, capsys, monkeypatch):
    from redpow import ctmc, squares

    def refuse(base, k):
        raise AssertionError(f"build_reduced_power called with k={k}")

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    rates = {f"{a}->{b}": {"base": "1"} for a, b in ("ab", "ba", "bc", "cb", "cd", "dc")}
    doc = {
        "graph": {"vertices": list("abcd"), "edges": [["a", "b"], ["b", "c"], ["c", "d"]]},
        "k": 1000000,
        "rates": rates,
    }
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["check-reversibility", "--model", str(model), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: model has 166667666668500001 states, over the budget of 5000\n"
    )
    assert not out.exists()


def test_check_reversibility_budget_is_inclusive(tmp_path, capsys, monkeypatch):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(pentagon_model()))  # C5, k = 3: 35 states
    monkeypatch.setattr(cli, "_STATE_BUDGET", 34)
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: model has 35 states, over the budget of 34\n"
    monkeypatch.setattr(cli, "_STATE_BUDGET", 35)
    assert main(["check-reversibility", "--model", str(model)]) == 0


def test_check_single_refuses_over_budget_before_building(tmp_path, capsys, monkeypatch):
    from redpow import ctmc, squares

    def refuse(base, k):
        raise AssertionError(f"build_reduced_power called with k={k}")

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    labels = [f"v{i}" for i in range(5001)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "1"} for a, b in edges})
    model, out = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps({"graph": {"vertices": labels, "edges": edges}, "k": 1,
                                 "rates": rates}))
    for command in ("check-single", "check-reversibility"):
        assert main([command, "--model", str(model), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: model has 5001 states, over the budget of 5000\n"
    assert not out.exists()


def test_check_single_budget_is_inclusive(tmp_path, capsys, monkeypatch):
    # one automaton on C5 has 5 states, whatever the model's k (3 here, 35 states)
    model = tmp_path / "m.json"
    model.write_text(json.dumps(pentagon_model()))
    monkeypatch.setattr(cli, "_STATE_BUDGET", 4)
    assert main(["check-single", "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: model has 5 states, over the budget of 4\n"
    monkeypatch.setattr(cli, "_STATE_BUDGET", 5)
    assert main(["check-single", "--model", str(model)]) == 0


@pytest.mark.parametrize("command", ["check-reversibility", "check-single"])
def test_unknown_vertex_in_a_model_names_the_field(tmp_path, capsys, command):
    key_doc = pentagon_model()
    key_doc["rates"]["a->q"] = {"base": "1"}
    coupling_doc = pentagon_model(couplings={"z": "1"})
    model = tmp_path / "m.json"
    for doc, message in (
        (key_doc, "rate key 'a->q': unknown vertex label 'q'"),
        (coupling_doc, "rates['a->b'].coupling: unknown vertex label 'z'"),
    ):
        model.write_text(json.dumps(doc))
        assert main([command, "--model", str(model)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n_vertices", [4, 300])
def test_check_reversibility_refuses_a_k_of_many_digits(tmp_path, capsys, n_vertices):
    # neither the count (over 10^4500 states) nor k is written out or
    # computed in full
    labels = [f"v{i}" for i in range(n_vertices)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "1"} for a, b in edges})
    doc = {"graph": {"vertices": labels, "edges": edges}, "k": 10**1500, "rates": rates}
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        "error: model has more than 10^30 states, over the budget of 5000\n"
    )


def test_capped_vertex_count_matches_the_closed_form():
    from redpow.power import vertex_count

    for v in range(1, 8):
        for k in range(1, 8):
            assert cli._capped_vertex_count(v, k, 10**30) == vertex_count(v, k)
    assert cli._capped_vertex_count(3, 4, 14) is None  # 15 states
    assert cli._capped_vertex_count(3, 4, 15) == 15


@pytest.mark.parametrize("command", ["power", "mcb", "verify-squares"])
def test_graph_commands_refuse_over_budget_before_building(tmp_path, capsys, monkeypatch, command):
    from redpow import ctmc, power, squares

    def refuse(*args, **kwargs):
        raise AssertionError("a power was built")

    for module in (cli, ctmc, power, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    for name in ("cartesian_power", "_decomposition_on", "greedy_mcb", "verify_square_space"):
        monkeypatch.setattr(cli, name, refuse)
    graph = tmp_path / "p4.json"
    graph.write_text(
        json.dumps({"vertices": list("abcd"), "edges": [["a", "b"], ["b", "c"], ["c", "d"]]})
    )
    out = tmp_path / "out.json"
    assert main([command, "--graph", str(graph), "--k", "1000000", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: power has 166667666668500001 states, over the budget of 5000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["power", "mcb", "verify-squares"])
def test_graph_commands_budget_is_inclusive(graph_file, capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "_STATE_BUDGET", 34)  # C5, k = 3: 35 states
    assert main([command, "--graph", str(graph_file), "--k", "3"]) == 1
    assert capsys.readouterr().err == "error: power has 35 states, over the budget of 34\n"
    monkeypatch.setattr(cli, "_STATE_BUDGET", 35)
    assert main([command, "--graph", str(graph_file), "--k", "3"]) == 0


def test_main_builds_its_parser_once(graph_file, capsys, monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["mcb", "--graph", str(graph_file), "--k", "2"]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1
    assert capsys.readouterr().out.count("kind=decomposition") == 3


ONE_VERTEX = {"vertices": ["a"], "edges": []}


@pytest.mark.parametrize("k", [10**6, 10**20, 10**40])
def test_one_vertex_base_refuses_a_large_k_before_building(tmp_path, capsys, monkeypatch, k):
    from redpow import ctmc, power, squares

    def refuse(*args, **kwargs):
        raise AssertionError("a power was built")

    for module in (cli, ctmc, power, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    graph, model = tmp_path / "a.json", tmp_path / "m.json"
    graph.write_text(json.dumps(ONE_VERTEX))
    model.write_text(json.dumps({"graph": ONE_VERTEX, "k": k, "rates": {}}))
    shown = k if k < 10**30 else "10^30 or more"
    out = tmp_path / "out.json"
    for argv, what in (
        (["power", "--graph", str(graph), "--k", str(k)], "power"),
        (["mcb", "--graph", str(graph), "--k", str(k)], "power"),
        (["verify-squares", "--graph", str(graph), "--k", str(k)], "power"),
        (["check-reversibility", "--model", str(model)], "model"),
    ):
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} has k = {shown}, over the budget of 5000\n"
    assert not out.exists()


def test_one_vertex_base_runs_at_the_k_bound(tmp_path, capsys):
    graph, model = tmp_path / "a.json", tmp_path / "m.json"
    graph.write_text(json.dumps(ONE_VERTEX))
    model.write_text(json.dumps({"graph": ONE_VERTEX, "k": 5000, "rates": {}}))
    for command in ("power", "mcb", "verify-squares"):
        assert main([command, "--graph", str(graph), "--k", "5000"]) == 0
    assert main(["check-reversibility", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "states=1 (formula 1) edges=0 (formula 0)" in out
    assert "square space: PASS" in out and "verdict: reversible" in out


def test_power_refuses_a_budget_over_the_default_before_building(
    tmp_path, graph_file, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("the Cartesian power was built")

    # a cartesian_power that skipped its budget check fails here, before allocating
    monkeypatch.setattr("redpow.power.product", refuse)
    edge = tmp_path / "ab.json"
    edge.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    # k = 40 on one edge is 41 states, within the state budget; 2^40 product vertices
    assert main(["power", "--graph", str(edge), "--k", "40"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "states=41 (formula 41) edges=40 (formula 40)\n"
        "cross-check: skipped (2^40 states exceed budget 1000000)\n"
    )
    assert captured.err == ""
    monkeypatch.undo()
    # the budget is fixed: --budget is no longer an option
    with pytest.raises(SystemExit) as exc:
        main(["power", "--graph", str(graph_file), "--k", "2", "--budget", "1000000"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget" in capsys.readouterr().err


# --- outputs that cannot be written, and exact values of any length ---


@pytest.mark.parametrize(
    "command, option",
    [
        ("power", "--out"),
        ("power", "--dot"),
        ("mcb", "--out"),
        ("verify-squares", "--out"),
        ("check-reversibility", "--out"),
        ("check-single", "--out"),
    ],
)
@pytest.mark.parametrize("in_missing_directory", [True, False])
def test_an_output_that_cannot_be_written_exits_1(
    tmp_path, graph_file, capsys, command, option, in_missing_directory
):
    if command.startswith("check"):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(pentagon_model()))
        argv = [command, "--model", str(model)]
    else:
        argv = [command, "--graph", str(graph_file), "--k", "2"]
    path = tmp_path / "missing" / "out" if in_missing_directory else tmp_path
    assert main([*argv, option, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and f" file {path}: " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["mcb", "check-reversibility", "check-single"])
def test_commands_build_no_report_document_without_out(
    tmp_path, graph_file, capsys, monkeypatch, command
):
    from redpow import ctmc

    if command == "mcb":
        argv = [command, "--graph", str(graph_file), "--k", "3"]
    else:
        model = tmp_path / "m.json"
        model.write_text(json.dumps(pentagon_model(couplings={"c": "1"})))
        argv = [command, "--model", str(model)]
    code = main(argv)
    printed = capsys.readouterr()

    def refuse(*args):
        raise AssertionError("a report document was built")

    monkeypatch.setattr(cli, "_basis_doc", refuse)
    for kind in (cli.Verdict, ctmc.KolmogorovReport, ctmc.CycleCheck, ctmc.SteadyState,
                 ctmc.BalanceReport):
        monkeypatch.setattr(kind, "as_dict", refuse)
    assert main(argv) == code
    assert capsys.readouterr() == printed
    with pytest.raises(AssertionError, match="a report document was built"):
        main([*argv, "--out", str(tmp_path / "report.json")])


# --- files are UTF-8 whatever the locale ---

ACCENTED = {"vertices": ["a", "\u00e9"], "edges": [["a", "\u00e9"]]}


@pytest.mark.parametrize("command", ["power", "check-reversibility"])
def test_a_file_that_is_not_utf8_is_an_error_naming_it(tmp_path, capsys, command):
    path = tmp_path / "latin1.json"
    if command == "power":
        doc, kind, argv = ACCENTED, "graph", [command, "--graph", str(path), "--k", "2"]
    else:
        rates = {"a->\u00e9": {"base": "1"}, "\u00e9->a": {"base": "2"}}
        doc, kind = {"graph": ACCENTED, "k": 2, "rates": rates}, "model"
        argv = [command, "--model", str(path)]
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} file {path} is not valid UTF-8: ")
    assert captured.err.count("\n") == 1


def test_power_reads_and_writes_utf8_in_the_c_locale(tmp_path):
    import os
    import subprocess
    from pathlib import Path

    import redpow

    graph, dot = tmp_path / "accented.json", tmp_path / "accented.dot"
    graph.write_text(json.dumps(ACCENTED, ensure_ascii=False), encoding="utf-8")
    script = (
        "import locale, sys\n"
        "from redpow.cli import main\n"
        "print(locale.getpreferredencoding(False))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(redpow.__file__).parents[1])}
    argv = ["power", "--graph", str(graph), "--k", "2", "--dot", str(dot)]
    run = subprocess.run([sys.executable, "-c", script, *argv],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert "utf" not in run.stdout.splitlines()[0].lower()  # the locale is not UTF-8
    assert '  "a\u00e9" -- "\u00e9^2";\n' in dot.read_text(encoding="utf-8")


def test_a_dot_label_utf8_cannot_encode_is_a_write_error(tmp_path, capsys):
    graph, dot = tmp_path / "surrogate.json", tmp_path / "surrogate.dot"
    graph.write_text('{"vertices": ["a", "\\ud800"], "edges": [["a", "\\ud800"]]}')
    assert main(["power", "--graph", str(graph), "--k", "1", "--dot", str(dot)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write DOT file {dot}: ") and err.count("\n") == 1
    assert not dot.exists()


TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}


def huge_rate_model(tmp_path, a_to_b: dict):
    """A triangle model at k = 2, every rate 1 but ``a->b``."""
    rates = {f"{x}->{y}": {"base": "1"} for x, y in ("ab", "ba", "bc", "cb", "ca", "ac")}
    rates["a->b"] = a_to_b
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"graph": TRIANGLE, "k": 2, "rates": rates}))
    return path


def assert_written_in_full(pairs):
    """Each (written string, computed Fraction) pair agrees, one string past the digit limit.

    Python refuses to parse ints of more than 4300 digits by default, so the
    limit is lifted here, for the parse only.
    """
    texts, values = zip(*pairs)
    assert max(map(len, texts)) > 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        parsed = [Fraction(text) for text in texts]
    finally:
        sys.set_int_max_str_digits(limit)
    assert parsed == list(values)


def check_pairs(written: dict, report) -> list:
    assert len(written["violations"]) == len(report.violations())
    return [
        (w[key], getattr(c, key))
        for w, c in zip(written["violations"], report.violations())
        for key in ("forward", "backward")
    ]


def test_check_reversibility_exact_writes_values_past_the_int_digit_limit(tmp_path, capsys):
    model = huge_rate_model(tmp_path, {"base": "1e4300"})
    out = tmp_path / "report.json"
    assert main(["check-reversibility", "--model", str(model), "--exact", "--out", str(out)]) == 2
    assert "verdict: not reversible" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    g, k, spec = load_model(model)
    basis = cli._basis_for(cli.build_reduced_power(g, k), 0)
    mc = MasterChain(basis.host, spec)
    ss = steady_state(mc, mode="exact")
    balance = detailed_balance_check(ss, mc)
    assert len(doc["detailed_balance"]["violations"]) == len(balance.violations)
    assert_written_in_full(
        [
            *check_pairs(doc["single_automaton"], single_automaton_check(g, spec)),
            *check_pairs(doc["kolmogorov"], kolmogorov_check(mc, basis)),
            *zip(doc["steady_state"]["probabilities"], ss.probabilities),
            *(
                (w[key], getattr(b, key))
                for w, b in zip(doc["detailed_balance"]["violations"], balance.violations)
                for key in ("flow_xy", "flow_yx")
            ),
        ]
    )


def test_check_single_writes_values_past_the_int_digit_limit(tmp_path, capsys):
    model = huge_rate_model(tmp_path, {"base": "1e4300"})
    out = tmp_path / "single.json"
    assert main(["check-single", "--model", str(model), "--out", str(out)]) == 2
    g, _, spec = load_model(model)
    doc = json.loads(out.read_text())
    assert_written_in_full(check_pairs(doc, single_automaton_check(g, spec)))


def test_model_to_dict_writes_rates_past_the_int_digit_limit(tmp_path):
    model = huge_rate_model(tmp_path, {"base": "1e4300", "coupling": {"c": "1e-4300"}})
    rates = model_to_dict(*load_model(model))["rates"]
    assert rates["a->b"] == {"base": "1" + "0" * 4300, "coupling": {"c": "1/1" + "0" * 4300}}


def test_a_non_positive_rate_past_the_int_digit_limit_is_named_in_full(tmp_path, capsys):
    # 1 - 2e4300 has 4301 digits, one past the limit
    model = huge_rate_model(tmp_path, {"base": "1", "coupling": {"c": "-2e4300"}})
    assert main(["check-reversibility", "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert f"rate a->b evaluates to -1{'9' * 4300} in state " in err


@pytest.mark.parametrize("rate", ["1e4300", "1e-4300"])
def test_model_to_dict_output_loads_back_past_the_int_digit_limit(tmp_path, rate):
    model = huge_rate_model(tmp_path, {"base": rate, "coupling": {"c": rate}})
    g, k, spec = load_model(model)
    doc = json.loads(json.dumps(model_to_dict(g, k, spec)))
    digits = "1" + "0" * 4300
    text = digits if rate == "1e4300" else f"1/{digits}"
    assert doc["rates"]["a->b"] == {"base": text, "coupling": {"c": text}}
    again = model_from_dict(doc)
    assert again[:2] == (g, k) and model_to_dict(*again) == doc
    assert again[2].base_rate(0, 1) == spec.base_rate(0, 1) == Fraction(10) ** int(rate[2:])
    assert again[2].coupling_vector(0, 1) == spec.coupling_vector(0, 1)


def test_model_from_dict_bounds_the_digits_of_a_plain_rational(tmp_path):
    doc = json.loads(huge_rate_model(tmp_path, {"base": "1"}).read_text())
    doc["rates"]["a->b"]["base"] = "9" * 8600
    assert model_from_dict(doc)[2].base_rate(0, 1) == 10**8600 - 1
    for rate in ("9" * 8601, "1/" + "9" * 8601):
        doc["rates"]["a->b"]["base"] = rate
        with pytest.raises(ModelError) as info:
            model_from_dict(doc)
        assert str(info.value) == "rates['a->b'].base: 8601-digit number exceeds 8600 digits"


def test_exact_values_are_written_in_full_under_a_lowered_digit_limit():
    from redpow.ctmc import _rational_str

    value = Fraction(10**999 + 7, 3)
    expected = f"{10**999 + 7}/3"
    short = Fraction(-(10**500), 10**100 + 1)
    short_expected = str(short)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        written = _rational_str(value), _rational_str(short)
    finally:
        sys.set_int_max_str_digits(limit)
    assert written == (expected, short_expected)


# --- check_reversibility: the library call behind check-reversibility ---


def _write_model(tmp_path, doc: dict):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    return model


def _pentagon_k1(tmp_path):
    return _write_model(tmp_path, {**pentagon_model(lam="33"), "k": 1})


def _halving_path(tmp_path):
    # pi_i halves along the path, so the float law underflows and 1100
    # states are over the exact solve's limit: the tree potential settles it
    labels = [f"v{i}" for i in range(1100)]
    edges = [[a, b] for a, b in zip(labels, labels[1:])]
    rates = {f"{a}->{b}": {"base": "1"} for a, b in edges}
    rates.update({f"{b}->{a}": {"base": "2"} for a, b in edges})
    doc = {"graph": {"vertices": labels, "edges": edges}, "k": 1, "rates": rates}
    return _write_model(tmp_path, doc)


@pytest.mark.parametrize(
    "make_model, exact",
    [
        (lambda tmp_path: _write_model(tmp_path, pentagon_model()), False),
        (lambda tmp_path: _write_model(tmp_path, pentagon_model()), True),
        (nearly_reversible_model, False),
        (_pentagon_k1, False),
        (_halving_path, False),
    ],
    ids=["pentagon-float", "pentagon-exact", "nearly-reversible", "k1", "underflow"],
)
def test_check_reversibility_library_call_matches_the_cli(tmp_path, capsys, make_model, exact):
    model, out = make_model(tmp_path), tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--out", str(out)]
                + ["--exact"] * exact)
    lines = capsys.readouterr().out.splitlines()
    verdict = cli.check_reversibility(*load_model(model), exact=exact)
    assert out.read_text() == json.dumps(verdict.as_dict()) + "\n"
    kol, bal = verdict.kolmogorov, verdict.balance
    assert code == (0 if kol.passed else 2)
    word = {True: "pass", False: "fail"}
    assert lines == [
        f"single-automaton criterion: {word[verdict.single.passed]}",
        f"cycle criterion: {word[kol.passed]} "
        f"({len(kol.checks)} cycles, {len(kol.violations())} violations)",
        f"detailed balance ({bal.mode}): {word[bal.balanced]}",
        f"verdict: {'reversible' if kol.passed else 'not reversible'}",
    ]
    assert kol.passed == bal.balanced


def test_check_reversibility_at_k1_reports_the_main_check_as_the_single_one(tmp_path):
    verdict = cli.check_reversibility(*load_model(_pentagon_k1(tmp_path)))
    assert verdict.single is verdict.kolmogorov
    assert not verdict.kolmogorov.passed and verdict.basis.kind == "greedy-mcb"
    assert verdict.as_dict()["states"] == 5


# the last k is past the int string limit: neither it nor its id is written out
@pytest.mark.parametrize("k", [0, -3, -(10**5000)], ids=["0", "-3", "-10^5000"])
def test_check_reversibility_refuses_k_below_one_before_building(monkeypatch, k):
    from redpow import ctmc, squares

    def refuse(*args, **kwargs):
        raise AssertionError("a power was built")

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    g, _, spec = model_from_dict(pentagon_model())
    with pytest.raises(RedpowError) as info:
        cli.check_reversibility(g, k, spec)
    shown = k if k > -(10**30) else "below -10^30"
    assert str(info.value) == f"model has k = {shown}, not at least 1"


def test_check_reversibility_raises_when_the_two_criteria_disagree(tmp_path, capsys, monkeypatch):
    import dataclasses

    balance_check = cli.detailed_balance_check

    def flipped(ss, mc):
        report = balance_check(ss, mc)
        return dataclasses.replace(report, balanced=not report.balanced)

    monkeypatch.setattr(cli, "detailed_balance_check", flipped)
    model, out = _write_model(tmp_path, pentagon_model()), tmp_path / "report.json"
    with pytest.raises(RedpowError) as info:
        cli.check_reversibility(*load_model(model))
    assert str(info.value) == "cycle criterion and exact detailed balance disagree"
    assert main(["check-reversibility", "--model", str(model), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cycle criterion and exact detailed balance disagree\n"
    assert not out.exists()


def test_the_exact_law_is_solved_once_when_the_criteria_disagree(monkeypatch, solve_threads):
    """Under --exact the balance already comes from the exact law: a disagreement raises at once."""
    import dataclasses

    balance_check = cli.detailed_balance_check

    def flipped(ss, mc):
        report = balance_check(ss, mc)
        return dataclasses.replace(report, balanced=not report.balanced)

    monkeypatch.setattr(cli, "detailed_balance_check", flipped)
    with pytest.raises(RedpowError) as info:
        cli.check_reversibility(*model_from_dict(pentagon_model()), exact=True)
    assert str(info.value) == "cycle criterion and exact detailed balance disagree"
    assert [mode for mode, _ in solve_threads] == ["exact"]


def test_check_reversibility_settles_past_the_float_state_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("redpow.ctmc._FLOAT_STATE_LIMIT", 10)
    # the reversible pentagon at k = 3 has 35 states: its tree potential settles it
    verdict = cli.check_reversibility(*model_from_dict(pentagon_model()))
    assert verdict.kolmogorov.passed and verdict.balance.balanced
    assert verdict.steady_state.mode == "exact"
    # an irreversible chain has no tree potential, so the refusal stands
    model = _write_model(tmp_path, pentagon_model(lam="33"))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: float mode supports up to 10 states, got 35\n"
    assert main(["check-reversibility", "--model", str(model), "--exact"]) == 2


# --- the cycle criterion beside the float solve: overlapped and sequential runs agree ---


def ring_model(kind: str, phi1: str | None = None) -> dict:
    """A 10-ring at k = 4 (715 states), over the worker threshold.

    Rates i->j are phi(j) plus one coupling vector shared by every pair, so
    the tokens move independently and the chain is reversible; "wide" draws
    phi from wide rationals. "irreversible" makes one coupling vector
    unequal. ``phi1``, if given, is phi(r1).
    """
    labels = [f"r{i}" for i in range(10)]
    edges = [[a, labels[(i + 1) % 10]] for i, a in enumerate(labels)]
    if kind == "wide":
        phi = [f"{(7919 * i + 104729) ** 3}/{(6007 * i + 15485863) ** 2}" for i in range(10)]
    else:
        phi = [str(1 + i % 3) for i in range(10)]
    if phi1 is not None:
        phi[1] = phi1
    rates = {}
    for a, b in edges:
        for src, dst in ((a, b), (b, a)):
            rates[f"{src}->{dst}"] = {
                "base": phi[labels.index(dst)],
                "coupling": {lab: "1/2" for lab in labels},
            }
    if kind == "irreversible":
        rates["r0->r1"]["coupling"]["r5"] = "3"
    return {"graph": {"vertices": labels, "edges": edges}, "k": 4, "rates": rates}


@pytest.fixture
def solve_threads(monkeypatch):
    """Record, per float or exact steady-state call, whether it ran on the main thread."""
    import threading

    seen = []
    solve = cli.steady_state

    def recording(mc, mode="float", *args, **kwargs):
        seen.append((mode, threading.current_thread() is threading.main_thread()))
        return solve(mc, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "steady_state", recording)
    return seen


@pytest.fixture
def criterion_threads(monkeypatch):
    """Record, per cycle criterion on the run's basis, whether it ran on the main thread."""
    import threading

    seen = []
    check = cli.kolmogorov_check

    def recording(mc, basis):
        seen.append(threading.current_thread() is threading.main_thread())
        return check(mc, basis)

    monkeypatch.setattr(cli, "kolmogorov_check", recording)
    return seen


@pytest.fixture
def potential_threads(monkeypatch):
    """Record, per float tree potential, whether it ran on the main thread."""
    import threading

    seen = []
    potential = cli._float_tree_potential

    def recording(mc):
        seen.append(threading.current_thread() is threading.main_thread())
        return potential(mc)

    monkeypatch.setattr(cli, "_float_tree_potential", recording)
    return seen


@pytest.mark.parametrize("kind", ["reversible", "irreversible", "wide"])
def test_overlapped_and_sequential_runs_agree(
    monkeypatch, solve_threads, criterion_threads, potential_threads, kind
):
    import numpy as np

    model = model_from_dict(ring_model(kind))
    runs = {}
    for threshold, criterion_on_main in ((0, False), (10**9, True)):
        monkeypatch.setattr(cli, "_OVERLAP_STATES", threshold)
        solve_threads.clear()
        criterion_threads.clear()
        potential_threads.clear()
        verdict = cli.check_reversibility(*model)
        # the float tree potential settles a reversible ring; an irreversible
        # one is solved densely, on the main thread too
        assert potential_threads == [True]
        assert solve_threads == ([("float", True)] if kind == "irreversible" else [])
        assert criterion_threads == [criterion_on_main]
        pi = np.array(verdict.steady_state.probabilities, dtype=np.float64)
        runs[threshold] = (json.dumps(verdict.as_dict()), pi.tobytes(), verdict.kolmogorov.passed)
    assert runs[0] == runs[10**9]
    assert runs[0][2] == (kind != "irreversible")


@pytest.mark.parametrize("kind", ["reversible", "irreversible"])
def test_both_thread_plans_run_the_stages_in_one_order(monkeypatch, kind):
    """The steady state is settled first, then the cycle criterion taken.

    The threshold decides only where the criterion runs: inline on the
    calling thread, or on the worker, joined after the settle.
    """
    import threading

    calls = []

    def recorded(name, function):
        def recording(*args, **kwargs):
            calls.append((name, threading.current_thread() is threading.main_thread()))
            return function(*args, **kwargs)

        return recording

    for name in ("_float_tree_potential", "steady_state", "kolmogorov_check"):
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    model = model_from_dict(ring_model(kind))
    runs = {}
    for threshold in (0, 10**9):
        monkeypatch.setattr(cli, "_OVERLAP_STATES", threshold)
        calls.clear()
        cli.check_reversibility(*model)
        runs[threshold] = list(calls)
    settles = [("_float_tree_potential", True)]
    if kind == "irreversible":
        settles.append(("steady_state", True))
    for run in runs.values():
        assert [call for call in run if call[0] != "kolmogorov_check" and call[1]] == settles
    assert runs[10**9] == settles + [("kolmogorov_check", True)]
    assert [call for call in runs[0] if call[0] == "kolmogorov_check"] == [
        ("kolmogorov_check", False)
    ]


def test_a_rate_outside_the_float_range_settles_as_before_above_the_threshold(
    tmp_path, capsys, solve_threads, criterion_threads
):
    verdict = cli.check_reversibility(*model_from_dict(ring_model("reversible", phi1="1e400")))
    assert verdict.kolmogorov.passed and verdict.balance.balanced
    assert verdict.steady_state.mode == "exact"
    # the solve raised on the calling thread and the tree potential settled;
    # the worker ran the cycle criterion
    assert solve_threads == [("float", True)]
    assert criterion_threads == [False]
    model = _write_model(tmp_path, ring_model("irreversible", phi1="1e400"))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        "error: rate r0->r1 in state 'r0^4' is about 1e+401, outside the float range; "
        "rerun with --exact\n"
    )


def test_the_float_state_limit_settles_as_before_above_the_threshold(
    tmp_path, capsys, monkeypatch, solve_threads, criterion_threads
):
    monkeypatch.setattr("redpow.ctmc._FLOAT_STATE_LIMIT", 700)
    verdict = cli.check_reversibility(*model_from_dict(ring_model("reversible")))
    assert verdict.kolmogorov.passed and verdict.balance.balanced
    assert verdict.steady_state.mode == "exact"
    # the solve raised on the calling thread and the tree potential settled;
    # the worker ran the cycle criterion
    assert solve_threads == [("float", True)]
    assert criterion_threads == [False]
    model = _write_model(tmp_path, ring_model("irreversible"))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == "error: float mode supports up to 700 states, got 715\n"


def test_a_criterion_error_on_the_worker_propagates_once_the_solve_returns(monkeypatch):
    import threading

    solving, solved = threading.Event(), threading.Event()
    solve = cli.steady_state

    def slow(mc, mode="float"):
        solving.set()
        solved.wait(0.2)  # still solving when the cycle criterion raises
        ss = solve(mc, mode)
        solved.set()
        return ss

    error = RuntimeError("the cycle criterion failed")

    def failing(mc, basis):
        assert solving.wait(10)
        raise error

    monkeypatch.setattr(cli, "steady_state", slow)
    monkeypatch.setattr(cli, "kolmogorov_check", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:  # an irreversible ring needs the dense solve
        cli.check_reversibility(*model_from_dict(ring_model("irreversible")))
    assert info.value is error
    assert solved.is_set() and threading.active_count() == before


@pytest.mark.parametrize("threshold", [0, 10**9])
def test_the_criterion_error_wins_over_a_failed_solve_on_either_thread(monkeypatch, threshold):
    """Overlapped or not, the caller sees the cycle criterion's error, and no thread is left."""
    import threading

    error = RuntimeError("the cycle criterion failed")

    def failing(mc, basis):
        raise error

    def unsolvable(mc, mode="float", *args, **kwargs):
        raise SolverError("the solve failed")

    g, k, spec = model_from_dict(pentagon_model(lam="33"))
    assert reversible_steady_state(MasterChain(build_reduced_power(g, k), spec)) is None
    monkeypatch.setattr(cli, "_OVERLAP_STATES", threshold)
    monkeypatch.setattr(cli, "kolmogorov_check", failing)
    monkeypatch.setattr(cli, "steady_state", unsolvable)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        cli.check_reversibility(g, k, spec)
    assert info.value is error
    assert threading.active_count() == before


def test_a_run_above_the_threshold_builds_one_power_and_converts_the_rates_once(
    tmp_path, capsys, monkeypatch, solve_threads, criterion_threads
):
    from redpow import ctmc, squares

    built = []
    original = cli.build_reduced_power

    def counting(base, k):
        built.append(k)
        return original(base, k)

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", counting)
    model = _write_model(tmp_path, ring_model("irreversible"))
    assert main(["check-reversibility", "--model", str(model)]) == 2
    assert sorted(built) == [1, 4]
    assert solve_threads == [("float", True)]
    assert criterion_threads == [False]

    g, k, spec = load_model(model)
    calls = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda q: calls.append(q) or to_float(q))
    verdict = cli.check_reversibility(g, k, spec)
    assert not verdict.balance.balanced
    assert len(calls) == 2 * verdict.basis.host.num_edges


# --- the float tree potential before the dense solve ---


def test_an_irreversible_chain_keeps_the_dense_float_law_bit_for_bit(solve_threads):
    import numpy as np

    for doc in (pentagon_model(lam="33"), pentagon_model(couplings={"c": "1"}),
                ring_model("irreversible")):
        g, k, spec = model_from_dict(doc)
        verdict = cli.check_reversibility(g, k, spec)
        dense = steady_state(MasterChain(build_reduced_power(g, k), spec), "float")
        assert not verdict.kolmogorov.passed and verdict.steady_state.mode == "float"
        assert (np.array(verdict.steady_state.probabilities).tobytes()
                == np.array(dense.probabilities).tobytes())
        assert verdict.steady_state.residual_inf == dense.residual_inf
    assert solve_threads == [("float", True)] * 3


def test_an_underflowing_potential_falls_back_to_the_dense_solve_then_the_exact_potential(
    solve_threads, potential_threads
):
    # at k = 2 the law of the edge is 1 : 2e-200 : 1e-400, and 1e-400 underflows
    g, k, spec = model_from_dict(edge_model("1e-100", "1e100", k=2))
    mc = MasterChain(build_reduced_power(g, k), spec)
    assert cli._float_tree_potential(mc) is None
    potential_threads.clear()
    with pytest.raises(SolverError):
        steady_state(mc, "float")
    verdict = cli.check_reversibility(g, k, spec)
    assert potential_threads == [True]
    assert solve_threads == [("float", True)]
    assert verdict.steady_state == reversible_steady_state(mc)
    assert verdict.kolmogorov.passed and verdict.balance.balanced
    assert verdict.balance.mode == "exact"


def k4_model(pair, rate):
    """K4 at k = 1, balanced but for the rate of ``pair`` (off the BFS tree, the star at a).

    Out of a every rate is 1e-6 and every other rate 1, so pi_a is near 1
    and the other entries near 1e-6.
    """
    labels = "abcd"
    edges = [[x, y] for i, x in enumerate(labels) for y in labels[i + 1:]]
    rates = {f"{x}->{y}": {"base": "1/1000000" if x == "a" else "1"} for x, y in edges}
    rates.update({f"{y}->{x}": {"base": "1"} for x, y in edges})
    rates[f"{pair[0]}->{pair[1]}"]["base"] = rate
    return model_from_dict({"graph": {"vertices": list(labels), "edges": edges}, "k": 1,
                            "rates": rates})


@pytest.mark.parametrize("pair", ["bc", "bd", "cd"])
def test_a_potential_unbalanced_on_one_edge_off_the_tree_is_refused(solve_threads, pair):
    """K4 with one rate off the tree raised by 1e-5.

    The potential's residual stays within the solve's 1e-10 and only the
    float balance test, on that one edge, refuses it: the dense law is
    reported.
    """
    import numpy as np

    g, k, spec = k4_model(pair, "100001/100000")
    mc = MasterChain(build_reduced_power(g, k), spec)
    potential = cli._float_tree_potential(mc)
    assert potential is not None
    report = detailed_balance_check(potential, mc)
    assert [(v.x, v.y) for v in report.violations] == [tuple(pair)]
    verdict = cli.check_reversibility(g, k, spec)
    assert not verdict.kolmogorov.passed and not verdict.balance.balanced
    dense = steady_state(mc, "float")
    assert (np.array(verdict.steady_state.probabilities).tobytes()
            == np.array(dense.probabilities).tobytes())
    assert solve_threads == [("float", True)]


def test_a_chain_balanced_within_the_float_tolerance_reports_the_dense_law(
    monkeypatch, solve_threads
):
    """K4 with c->d raised by 1e-11: the potential passes every float check.

    The exact cycle criterion refutes the chain, so on either route the
    verdict carries the dense law, as for any other irreversible chain,
    and the exact balance test.
    """
    import numpy as np

    g, k, spec = k4_model("cd", "100000000001/100000000000")
    mc = MasterChain(build_reduced_power(g, k), spec)
    potential = cli._float_tree_potential(mc)
    assert potential is not None and detailed_balance_check(potential, mc).balanced
    dense = steady_state(mc, "float")
    for threshold in (0, 10**9):
        monkeypatch.setattr(cli, "_OVERLAP_STATES", threshold)
        verdict = cli.check_reversibility(g, k, spec)
        assert not verdict.kolmogorov.passed and not verdict.balance.balanced
        assert verdict.balance.mode == "exact"
        assert verdict.steady_state.mode == "float"
        assert (np.array(verdict.steady_state.probabilities).tobytes()
                == np.array(dense.probabilities).tobytes())
        assert verdict.steady_state.residual_inf == dense.residual_inf
    # the dense law passes the float balance test too, so the exact law settles the verdict
    assert solve_threads == [("float", True), ("exact", True)] * 2


@pytest.mark.parametrize("c_to_b", ["2", "3"])
def test_check_reversibility_refuses_an_exit_rate_past_the_float_range(tmp_path, capsys, c_to_b):
    """a->b and a->c fit a float but their sum does not; the model is reversible at c->b = 2.

    With b->a = c->a = 1 the float tree potential settles the reversible
    model, and no exit rate is summed. At 1e-300 pi_a underflows to zero,
    so the dense solve runs, refuses the exit rate of a, and the exact tree
    potential settles the reversible model.
    """
    import warnings

    for into_a in ("1", "1e-300"):
        rates = {"a->b": "1.5e308", "a->c": "1.5e308", "b->a": into_a, "c->a": into_a, "b->c": "2"}
        rates["c->b"] = c_to_b
        doc = {"graph": TRIANGLE, "k": 1, "rates": {key: {"base": v} for key, v in rates.items()}}
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-reversibility", "--model", str(model)])
            out, err = capsys.readouterr()
            if c_to_b == "2":
                assert (code, err) == (0, "")
                mode = "float" if into_a == "1" else "exact"
                assert f"detailed balance ({mode}): pass" in out
            else:
                assert (code, err) == (
                    1,
                    "error: exit rate of state 'a' overflows the float range; rerun with --exact\n",
                )
            assert main(["check-reversibility", "--model", str(model), "--exact"]) == (
                0 if c_to_b == "2" else 2
            )
            assert capsys.readouterr().err == ""


def test_check_reversibility_refuses_a_law_of_nans_with_the_exact_hint(
    tmp_path, capsys, monkeypatch
):
    """A NaN float law says to rerun with --exact.

    A reversible model settles by its float tree potential, with no dense
    solve; where that potential underflows, by its exact one.
    """
    import numpy as np

    solves = []
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, b: solves.append(len(b)) or np.full(len(b), np.nan)
    )
    model = _write_model(tmp_path, pentagon_model(couplings={"a": "1", "b": "2"}))
    assert main(["check-reversibility", "--model", str(model)]) == 1
    assert capsys.readouterr().err == (
        "error: steady-state residual nan exceeds tolerance 1.000e-10; rerun with --exact\n"
    )
    assert main(["check-reversibility", "--model", str(model), "--exact"]) == 2
    assert capsys.readouterr().err == ""
    assert solves == [35]
    model = _write_model(tmp_path, pentagon_model())
    assert main(["check-reversibility", "--model", str(model)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "detailed balance (float): pass" in out
    assert solves == [35]
    # pi_b = 1e-400 underflows: the potential is refused and the law of NaNs
    # leaves the chain to its exact tree potential
    model = _write_model(tmp_path, edge_model("1e-200", "1e200"))
    assert main(["check-reversibility", "--model", str(model)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "detailed balance (exact): pass" in out
    assert solves == [35, 2]


# --- the module run and the console-script entry ---


def _irreversible_triangle(tmp_path):
    """A triangle at k = 1 whose one cycle has product 2 one way and 1 the other."""
    rates = {f"{x}->{y}": {"base": "1"} for x, y in ("ab", "ba", "bc", "cb", "ca", "ac")}
    rates["a->b"] = {"base": "2"}
    return _write_model(tmp_path, {"graph": TRIANGLE, "k": 1, "rates": rates})


def test_the_console_entry_exits_with_the_verdicts_code(tmp_path, monkeypatch, capsys):
    from redpow import cli

    model = _irreversible_triangle(tmp_path)
    monkeypatch.setattr(sys, "argv", ["redpow", "check-reversibility", "--model", str(model), "--exact"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out.endswith("verdict: not reversible\n") and err == ""


def test_running_the_cli_module_prints_the_verdict_and_exits_with_its_code(tmp_path):
    import os
    import subprocess
    from pathlib import Path

    import redpow

    model = _irreversible_triangle(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(redpow.__file__).parents[1])}
    argv = ["check-reversibility", "--model", str(model), "--exact"]
    run = subprocess.run([sys.executable, "-m", "redpow.cli", *argv],
                         capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (2, "")
    assert run.stdout.endswith("detailed balance (exact): fail\nverdict: not reversible\n")


@pytest.mark.parametrize(
    "k,message",
    [
        (2.0, "model k 2.0 is not an integer"),
        ("2", "model k '2' is not an integer"),
        (-1, "model has k = -1, not at least 1"),
        (10**5000, "model has more than 10^30 states, over the budget of 5000"),
    ],
    ids=["float", "string", "negative", "far"],
)
def test_check_reversibility_refuses_k_by_the_integer_rule_before_building(monkeypatch, k, message):
    from redpow import ctmc, squares

    def refuse(*args, **kwargs):
        raise AssertionError("a power was built")

    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", refuse)
    g, _, spec = model_from_dict(pentagon_model())
    with pytest.raises(RedpowError) as info:
        cli.check_reversibility(g, k, spec)
    assert str(info.value) == message


def test_check_reversibility_of_every_integer_type_keeps_its_verdict():
    import numpy as np

    g, _, spec = model_from_dict(pentagon_model())
    report = json.dumps(cli.check_reversibility(g, 2, spec).as_dict())
    for two in (np.int64(2), np.int32(2)):
        verdict = cli.check_reversibility(g, two, spec)
        assert type(verdict.k) is int and verdict.basis.host.k == 2
        assert json.dumps(verdict.as_dict()) == report
    one = cli.check_reversibility(g, True, spec)
    assert type(one.k) is int
    assert json.dumps(one.as_dict()) == json.dumps(cli.check_reversibility(g, 1, spec).as_dict())


# --- files json cannot parse into Python values exit 1 with one error line ---


@pytest.mark.parametrize("command", ["power", "check-reversibility"])
@pytest.mark.parametrize(
    "value,reason",
    [
        ("[" * 3000 + "]" * 3000, "maximum recursion depth exceeded"),
        ("1" + "0" * 4999, "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep", "long-int"],
)
def test_a_file_json_cannot_parse_is_an_error_naming_it(tmp_path, capsys, command, value, reason):
    path = tmp_path / "input.json"
    if command == "power":
        kind, argv = "graph", [command, "--graph", str(path), "--k", "2"]
        path.write_text(json.dumps(PENTAGON).replace('"edges": [', f'"edges": [{value}, ', 1))
    else:
        kind, argv = "model", [command, "--model", str(path)]
        path.write_text(json.dumps({**pentagon_model(), "k": 0}).replace('"k": 0', f'"k": {value}'))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} file {path} cannot be parsed: {reason}")
    assert captured.err.count("\n") == 1


# --- per-cycle objects are built on read ---


def _record_per_cycle_objects(monkeypatch) -> list:
    """(class name, made on the main thread) of every EdgeVector, ElementInfo and CycleCheck made from now on."""
    import threading

    from redpow import CycleCheck, EdgeVector, ElementInfo

    made = []

    def record(cls):
        made.append((cls.__name__, threading.current_thread() is threading.main_thread()))

    for cls in (EdgeVector, ElementInfo, CycleCheck):

        def recording(self, *args, _init=cls.__init__, **kwargs):
            record(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    traced = EdgeVector._traced.__func__
    monkeypatch.setattr(EdgeVector, "_traced", classmethod(lambda c, *a: record(c) or traced(c, *a)))
    return made


def test_a_reversible_run_over_the_worker_threshold_builds_no_per_cycle_object(
    tmp_path, capsys, monkeypatch
):
    from redpow import cyclespace

    doc = ring_model("reversible")
    g, k, _ = model_from_dict(doc)
    assert build_reduced_power(g, k).num_states == 715 >= cli._OVERLAP_STATES
    cyclespace._base_mcb(g)  # the base's own basis holds its elements
    made = _record_per_cycle_objects(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["check-reversibility", "--model", str(_write_model(tmp_path, doc)), "--out", str(out)]) == 0
    assert made == []
    report = json.loads(out.read_text())
    assert report["kolmogorov"]["cycles_checked"] == 10 * 220 - 715 + 1  # betti of the power
    assert report["kolmogorov"]["violations"] == [] and report["reversible"] is True
    assert "(1486 cycles, 0 violations)" in capsys.readouterr().out


def test_mcb_out_at_k_2_or_more_builds_no_edge_vector(tmp_path, monkeypatch):
    from redpow import cyclespace

    tailed = {"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "d"]]}
    out = tmp_path / "basis.json"
    for doc, k in ((PENTAGON, 2), (PENTAGON, 3), (tailed, 4)):
        g = graph_from_dict(doc)
        cyclespace._base_mcb(g)  # the base's own basis holds its elements
        made = _record_per_cycle_objects(monkeypatch)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        assert main(["mcb", "--graph", str(path), "--k", str(k), "--out", str(out)]) == 0
        assert [name for name, _ in made if name == "EdgeVector"] == []
        basis = json.loads(out.read_text())
        rp = build_reduced_power(g, k)
        assert basis["element_count"] == len(basis["elements"]) == rp.num_edges - rp.num_states + 1
        monkeypatch.undo()


def test_a_refuted_run_over_the_worker_threshold_builds_its_checks_on_the_worker(monkeypatch):
    from redpow import cyclespace

    model = model_from_dict(ring_model("irreversible"))
    cyclespace._base_mcb(model[0])
    made = _record_per_cycle_objects(monkeypatch)
    verdict = cli.check_reversibility(*model)
    assert not verdict.kolmogorov.passed and verdict.kolmogorov.violations()
    checks = [on_main for name, on_main in made if name == "CycleCheck"]
    assert len(checks) == verdict.kolmogorov._checked == len(verdict.kolmogorov.checks) == 1486
    assert made and not any(on_main for _, on_main in made)
    assert {name for name, _ in made} == {"CycleCheck", "ElementInfo"}


# --- a run reads the power's move record, never its annotation tuple ---


def test_no_run_but_power_s_cross_check_builds_the_annotation_tuple(tmp_path, capsys, monkeypatch):
    """mcb, verify-squares and float runs inline (210 states) and on the worker (715) read the record."""
    from redpow import ctmc, squares

    built = []

    def recording(base, k):
        built.append(original(base, k))
        return built[-1]

    original = cli.build_reduced_power
    for module in (cli, ctmc, squares):
        monkeypatch.setattr(module, "build_reduced_power", recording)
    runs = []
    for n in (7, 10):  # ring_model's rates on an n-ring
        labels = [f"r{i}" for i in range(n)]
        edges = [[a, labels[(i + 1) % n]] for i, a in enumerate(labels)]
        for kind in ("reversible", "irreversible"):
            rates = {}
            for a, b in edges:
                for src, dst in ((a, b), (b, a)):
                    coupling = {lab: "1/2" for lab in labels}
                    rates[f"{src}->{dst}"] = {"base": str(1 + labels.index(dst) % 3), "coupling": coupling}
            if kind == "irreversible":
                rates["r0->r1"]["coupling"]["r5"] = "3"
            model = tmp_path / f"ring{n}-{kind}.json"
            model.write_text(json.dumps({"graph": {"vertices": labels, "edges": edges}, "k": 4, "rates": rates}))
            runs.append((["check-reversibility", "--model", str(model)], 0 if kind == "reversible" else 2, n))
    graph = tmp_path / "ring7.json"
    graph.write_text(json.dumps({"vertices": labels[:7], "edges": [[f"r{i}", f"r{(i + 1) % 7}"] for i in range(7)]}))
    for command in ("mcb", "verify-squares"):
        runs.append(([command, "--graph", str(graph), "--k", "4"], 0, 7))
    for args, code, n in runs:
        built.clear()
        assert main(args + ["--out", str(tmp_path / "out.json")]) == code, args
        assert [rp.num_states for rp in built if rp.k > 1] == [210 if n == 7 else 715], args
        for rp in built:
            with pytest.raises(AttributeError):
                ReducedPowerGraph.annotations.__get__(rp)
    capsys.readouterr()
