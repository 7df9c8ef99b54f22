"""Command-line interface: subcommands, files, exit codes."""

from __future__ import annotations

import json

import pytest

from redpow import ReducedPowerGraph, cli, graph_from_dict, load_graph
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
    code = main(["power", "--graph", str(graph_file), "--k", "3", "--budget", "10"])
    assert code == 0
    assert "cross-check: skipped" in capsys.readouterr().out


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


def test_check_reversibility_float_falls_back_to_exact_potential(tmp_path, capsys):
    # Potential rates i->j = phi(j) with one coupling shared by every
    # vertex: tokens move independently, so the chain is reversible. Its
    # stationary law spans so many orders of magnitude that the float
    # detailed-balance test misses its 1e-9 relative tolerance on two edges.
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
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"graph": PENTAGON, "k": 5, "rates": rates}))
    out = tmp_path / "report.json"
    code = main(["check-reversibility", "--model", str(model), "--out", str(out)])
    assert code == 0
    assert "detailed balance (exact): pass" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["reversible"] is True
    assert doc["steady_state"]["mode"] == "float"
    assert doc["detailed_balance"] == {"balanced": True, "mode": "exact", "violations": []}


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
