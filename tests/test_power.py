"""Reduced power construction and the symmetry-quotient oracle."""

from __future__ import annotations

import re
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    Graph,
    Monomial,
    PowerError,
    betti,
    build_reduced_power,
    cartesian_power,
    degree_of,
    edge_count,
    orbit_size,
    quotient_by_symmetry,
    vertex_count,
)

from conftest import cycle_graph, complete_graph, path_graph, random_connected_graph


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert m.word() == (0, 0, 2)
    assert Monomial.from_word((2, 0, 0), 3) == m
    assert m.to_string(("a", "b", "c")) == "a^2c"
    assert Monomial((0, 0, 0)).to_string(("a", "b", "c")) == "1"
    assert m.times(1).exponents == (2, 1, 1)


def test_monomial_rejects():
    with pytest.raises(PowerError, match="negative"):
        Monomial((1, -1))
    with pytest.raises(PowerError, match="out of range"):
        Monomial.from_word((3,), 3)
    with pytest.raises(PowerError, match="out of range"):
        Monomial((1,)).times(5)


def test_orbit_sizes():
    assert orbit_size(Monomial((3, 0, 0, 0, 0))) == 1
    assert orbit_size(Monomial((2, 1, 0, 0, 0))) == 3
    assert orbit_size(Monomial((1, 1, 1, 0, 0))) == 6


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_orbit_sizes_sum_to_tuple_count(v, k):
    g = complete_graph(v) if v > 1 else Graph(["v0"], [])
    rp = build_reduced_power(g, k) if v > 1 else None
    if rp is None:
        return
    assert sum(orbit_size(m) for m in rp.states) == v**k


def test_pentagon_counts():
    g = cycle_graph(5, "abcde")
    rp2 = build_reduced_power(g, 2)
    assert (rp2.num_states, rp2.num_edges) == (15, 25)
    rp3 = build_reduced_power(g, 3)
    assert (rp3.num_states, rp3.num_edges) == (35, 75)
    assert vertex_count(5, 3) == 35
    assert edge_count(5, 5, 3) == 75
    assert betti(rp3.graph) == 41


def test_power_of_k2_is_a_path():
    g = Graph("ab", [("a", "b")])
    rp = build_reduced_power(g, 4)
    assert rp.graph.labels == ("a^4", "a^3b", "a^2b^2", "ab^3", "b^4")
    assert rp.graph.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_k1_reproduces_base():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 1)
    assert rp.graph == g


def test_count_formulas_on_suite(suite):
    for g in suite:
        v, e = g.num_vertices, g.num_edges
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            assert rp.num_states == vertex_count(v, k) == comb(k + v - 1, k)
            assert rp.num_edges == edge_count(e, v, k) == e * comb(k + v - 2, k - 1)


def test_state_order_is_canonical():
    g = path_graph(3, "abc")
    rp = build_reduced_power(g, 2)
    assert rp.graph.labels == ("a^2", "ab", "ac", "b^2", "bc", "c^2")


def test_annotations_name_the_move():
    g = cycle_graph(4)
    rp = build_reduced_power(g, 3)
    for e in range(rp.num_edges):
        i, j, f = rp.annotation(e)
        assert f.degree == 2
        x, y = rp.graph.edges[e]
        assert {rp.state_index(f.times(i)), rp.state_index(f.times(j))} == {x, y}
        assert g.has_edge(i, j)


def test_degree_formula_everywhere(suite):
    for g in suite:
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            for m in rp.states:
                expected = sum(g.degree(i) for i, e in enumerate(m.exponents) if e)
                assert degree_of(rp, m) == expected


def test_handshake(suite):
    for g in suite:
        rp = build_reduced_power(g, 2)
        total = sum(rp.graph.degree(i) for i in range(rp.num_states))
        assert total == 2 * rp.num_edges


def test_quotient_oracle_agrees(suite):
    for g in suite:
        for k in (1, 2, 3):
            direct = build_reduced_power(g, k)
            oracle = quotient_by_symmetry(cartesian_power(g, k), g, k)
            assert oracle == direct
            assert oracle.states == direct.states
            assert oracle.annotations == direct.annotations


def test_quotient_rejects_tampered_power():
    g = cycle_graph(4)
    with pytest.raises(PowerError, match="expected"):
        quotient_by_symmetry(cartesian_power(g, 3), g, 2)
    power = cartesian_power(g, 2)
    pruned = Graph(power.labels, power.edge_labels()[:-1])
    with pytest.raises(PowerError, match="expected"):
        quotient_by_symmetry(pruned, g, 2)
    # swap one edge for a diagonal move touching two coordinates
    labels = power.labels
    bad_edges = power.edge_labels()[:-1] + [("v0,v0", "v1,v1")]
    with pytest.raises(PowerError, match="more than one coordinate"):
        quotient_by_symmetry(Graph(labels, bad_edges), g, 2)


def test_cartesian_power_budget():
    g = cycle_graph(5)
    with pytest.raises(PowerError, match="budget"):
        cartesian_power(g, 3, budget=100)


def test_cartesian_power_k1_is_base():
    g = cycle_graph(5, "abcde")
    assert cartesian_power(g, 1) == g


def test_k0_rejected():
    g = cycle_graph(4)
    with pytest.raises(PowerError, match="k must be >= 1"):
        build_reduced_power(g, 0)
    with pytest.raises(PowerError, match="k must be >= 1"):
        cartesian_power(g, 0)


def test_state_index_rejects_foreign_monomial():
    g = cycle_graph(4)
    rp = build_reduced_power(g, 2)
    with pytest.raises(PowerError, match="not a state"):
        rp.state_index(Monomial((1, 1, 1, 0)))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(0, 10**6),
)
def test_quotient_oracle_property(v, extra, k, seed):
    g = random_connected_graph(v, extra, seed)
    assert quotient_by_symmetry(cartesian_power(g, k), g, k) == build_reduced_power(g, k)


# --- the word key ---


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(0, 10**6),
)
def test_state_of_agrees_with_state_index(v, extra, k, seed):
    g = random_connected_graph(v, extra, seed)
    rp = build_reduced_power(g, k)
    for (x, y), (i, j, f) in zip(rp.graph.edges, rp.annotations):
        assert rp.state_of(f.word() + (i,)) == rp.state_index(f.times(i)) == x
        assert rp.state_of(f.word() + (j,)) == rp.state_index(f.times(j)) == y
        for tokens in set(permutations(f.word() + (i,))):
            assert rp.state_of(tokens) == x


@pytest.mark.parametrize("tokens", [(), (0,), (0, 1, 2), (0, 4), (-1, 0), (9, 9)])
def test_state_of_rejects_non_states(tokens):
    rp = build_reduced_power(cycle_graph(4), 2)
    with pytest.raises(PowerError, match=re.escape(f"tokens {tokens} are not a state")):
        rp.state_of(tokens)


def test_state_index_rejects_monomials_of_another_size():
    rp = build_reduced_power(cycle_graph(4), 2)
    # both words, (0, 1) and (0, 0), are states of the power
    with pytest.raises(PowerError, match="not a state"):
        rp.state_index(Monomial((1, 1, 0, 0, 0)))
    with pytest.raises(PowerError, match="not a state"):
        rp.state_index(Monomial((2,)))


# --- labels of multi-character base vertices ---


OVERLAPPING = ["a", "bc", "ab", "c"]  # a with bc and ab with c both spell 'abc'


def _labelled_path(labels: list[str]) -> Graph:
    return Graph(labels, list(zip(labels, labels[1:])))


@pytest.mark.parametrize("k", [2, 3])
def test_overlapping_labels_get_separated_states(k):
    g = _labelled_path(OVERLAPPING)
    rp = build_reduced_power(g, k)
    labels = rp.graph.labels
    assert len(set(labels)) == rp.num_states == vertex_count(4, k)
    assert all("*" in lab or lab.endswith(f"^{k}") for lab in labels)
    assert rp.label(rp.state_of((0, 1) + (3,) * (k - 2))) == "a*bc" + "*c" * (k - 2)
    assert rp.label(rp.state_of((2, 3) + (3,) * (k - 2))) == ("ab*c" if k == 2 else "ab*c^2")
    oracle = quotient_by_symmetry(cartesian_power(g, k), g, k)
    assert oracle == rp
    assert oracle.annotations == rp.annotations


def test_distinct_plain_labels_stay_plain():
    g = _labelled_path(["a", "bc", "d"])
    assert build_reduced_power(g, 2).graph.labels == (
        "a^2", "abc", "ad", "bc^2", "bcd", "d^2"
    )
    assert build_reduced_power(_labelled_path(OVERLAPPING), 1).graph.labels == tuple(OVERLAPPING)


def test_labels_that_collide_even_separated_are_refused():
    g = _labelled_path(["a", "ab", "a*b", "bc", "b*c", "c"])
    with pytest.raises(PowerError) as info:
        build_reduced_power(g, 2)
    assert str(info.value) == "states ('a', 'b*c') and ('a*b', 'c') both render as 'a*b*c'"
