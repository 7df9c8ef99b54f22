"""Reduced power construction and the symmetry-quotient oracle."""

from __future__ import annotations

import re
import tracemalloc
from itertools import combinations_with_replacement, permutations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    Graph,
    GraphError,
    Monomial,
    PowerError,
    RedpowError,
    betti,
    build_reduced_power,
    cartesian_power,
    degree_of,
    edge_count,
    orbit_size,
    quotient_by_symmetry,
    vertex_count,
)
from redpow.power import _LABEL_COORDS, _assemble

from conftest import (
    COUNT_KINDS,
    assert_count_refused,
    cycle_graph,
    complete_graph,
    generator_suite,
    path_graph,
    random_connected_graph,
)


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


def test_quotient_refuses_k0():
    g = cycle_graph(4)
    with pytest.raises(PowerError, match="k must be >= 1"):
        quotient_by_symmetry(g, g, 0)


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


def test_state_of_ranks_every_word_in_every_order_and_integer_type(suite):
    for g in suite:
        v = g.num_vertices
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            for word in combinations_with_replacement(range(v), k):
                index = rp.states.index(Monomial.from_word(word, v))
                for tokens in set(permutations(word)):
                    for typed in (tokens, tuple(map(np.int64, tokens))):
                        got = rp.state_of(typed)
                        assert got == index and type(got) is int
                    if max(tokens) <= 1:
                        assert rp.state_of(tuple(t == 1 for t in tokens)) == index


@pytest.mark.parametrize("tokens", [(0, "a"), ("a", "b"), (0, 1.0), (np.float64(0), 1)])
def test_state_of_refuses_tokens_that_are_not_integers(tokens):
    rp = build_reduced_power(cycle_graph(4), 2)
    message = f"tokens {tokens} are not a state of this power"
    with pytest.raises(PowerError, match=re.escape(message)):
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


# --- the array oracle: its refusals and the tuple-by-tuple reference ---


def _relabelled(power: Graph, labels: list[str]) -> Graph:
    return Graph(labels, [(labels[i], labels[j]) for i, j in power.edges])


@pytest.mark.parametrize("k", [1, 3])
def test_quotient_rejects_labels_that_are_not_k_tuples(k):
    g = cycle_graph(4)
    labels = list(cartesian_power(g, k).labels)
    labels[3] += ",v0"
    power = _relabelled(cartesian_power(g, k), labels)
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(power, g, k)
    assert str(info.value) == f"vertex label {labels[3]!r} is not a {k}-tuple of base labels"


@pytest.mark.parametrize("k", [1, 3])
def test_quotient_rejects_unknown_base_labels(k):
    g = cycle_graph(4)
    labels = list(cartesian_power(g, k).labels)
    labels[3] = labels[3][:-2] + "zz"
    with pytest.raises(GraphError, match="unknown vertex label 'zz'"):
        quotient_by_symmetry(_relabelled(cartesian_power(g, k), labels), g, k)


@pytest.mark.parametrize("k", [1, 3])
def test_quotient_rejects_repeated_tuples(k):
    g = cycle_graph(4)
    power = cartesian_power(g, k)
    # Graph refuses repeated labels, so the repeat is written over a built power
    power.labels = power.labels[:1] * 2 + power.labels[2:]
    with pytest.raises(PowerError, match="product vertices are not distinct tuples"):
        quotient_by_symmetry(power, g, k)


@pytest.mark.parametrize("k", [1, 3])
def test_quotient_rejects_edges_off_the_base(k):
    g = cycle_graph(4)
    power = cartesian_power(g, k)
    rest = ",v1" * (k - 1)
    edges = power.edge_labels()[:-1] + [("v0" + rest, "v2" + rest)]  # v0-v2 is a chord
    with pytest.raises(PowerError, match="product edge does not project onto a base edge"):
        quotient_by_symmetry(Graph(power.labels, edges), g, k)


def test_quotient_of_a_12000_vertex_path_peaks_at_a_few_megabytes():
    # with a v x v matrix of the base pairs moved along this case peaked at 151 MB
    g = path_graph(12000)
    power = cartesian_power(g, 1)
    tracemalloc.start()
    try:
        oracle = quotient_by_symmetry(power, g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert (oracle.num_states, oracle.num_edges, oracle.annotations[-1][:2]) == (12000, 11999, (11998, 11999))


def test_quotient_of_a_single_vertex_base():
    g = Graph(["a"], [])
    for k in (1, 3):
        oracle = quotient_by_symmetry(cartesian_power(g, k), g, k)
        assert oracle == build_reduced_power(g, k) and oracle.annotations == ()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(generator_suite()), st.integers(1, 3), st.booleans(), st.data())
def test_quotient_of_a_count_preserving_corruption_refuses_or_equals_the_power(
    g, k, reroute, data
):
    # A corrupted product with the right vertex and edge counts either fails
    # to build or to pass the quotient's checks, or is still the power:
    # nothing in between comes back.
    power = cartesian_power(g, k)
    n, labels, edges = power.num_vertices, list(power.labels), list(power.edges)
    vertex = st.integers(0, n - 1)
    if reroute:
        edges[data.draw(st.integers(0, len(edges) - 1))] = (data.draw(vertex), data.draw(vertex))
    else:
        i, j = data.draw(vertex), data.draw(vertex)
        labels[i], labels[j] = labels[j], labels[i]
    try:
        oracle = quotient_by_symmetry(
            Graph(power.labels, [(labels[i], labels[j]) for i, j in edges]), g, k
        )
    except RedpowError:
        return
    direct = build_reduced_power(g, k)
    assert oracle == direct
    assert oracle.annotations == direct.annotations


def _reference_cartesian_power(base: Graph, k: int) -> Graph:
    """The product built tuple by tuple, each edge from its two joined labels."""
    tuples = list(product(range(base.num_vertices), repeat=k))
    labels = [",".join(base.labels[i] for i in tup) for tup in tuples]
    edges = []
    for ti, tup in enumerate(tuples):
        for pos in range(k):
            for nbr in base.adjacency(tup[pos]):
                if nbr > tup[pos]:
                    other = tup[:pos] + (nbr,) + tup[pos + 1 :]
                    edges.append((labels[ti], ",".join(base.labels[i] for i in other)))
    return Graph(labels, edges)


def _reference_quotient(power: Graph, base: Graph, k: int):
    """The quotient read off product edge by product edge."""
    tuples = [tuple(base.index_of(p) for p in lab.split(",")) for lab in power.labels]
    vertex_words = [tuple(sorted(t)) for t in tuples]
    words = sorted(set(vertex_words))
    word_index = {w: i for i, w in enumerate(words)}
    state = [word_index[w] for w in vertex_words]
    moves = {}
    for pi, pj in power.edges:
        tx, ty = tuples[pi], tuples[pj]
        (pos,) = [pos for pos in range(k) if tx[pos] != ty[pos]]
        a, b = tx[pos], ty[pos]
        assert base.has_edge(a, b)
        x, y = sorted((state[pi], state[pj]))
        move = (min(a, b), max(a, b), tuple(sorted(tx[:pos] + tx[pos + 1 :])))
        assert moves.setdefault((x, y), move) == move
    return _assemble(base, k, words, moves)


def _assert_oracle_matches_reference(g: Graph, k: int) -> None:
    power = cartesian_power(g, k)
    assert power == _reference_cartesian_power(g, k)
    oracle, reference = quotient_by_symmetry(power, g, k), _reference_quotient(power, g, k)
    assert oracle.graph == reference.graph
    assert oracle.states == reference.states
    assert oracle.annotations == reference.annotations


def test_array_oracle_equals_the_tuple_reference(suite):
    for g in suite:
        for k in (1, 2, 3):
            _assert_oracle_matches_reference(g, k)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.text("abc", min_size=1, max_size=3), min_size=2, max_size=5, unique=True),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(0, 10**6),
)
def test_array_oracle_equals_the_tuple_reference_on_random_labels(labels, extra, k, seed):
    shape = random_connected_graph(len(labels), extra, seed)
    g = Graph(labels, [(labels[i], labels[j]) for i, j in shape.edges])
    _assert_oracle_matches_reference(g, k)


# --- the builders' index-pair path against the label path ---


def _builder_graphs(g: Graph, k: int) -> list[Graph]:
    power = cartesian_power(g, k)
    return [build_reduced_power(g, k).graph, power, quotient_by_symmetry(power, g, k).graph]


def _assert_label_path_agrees(built: Graph) -> None:
    rebuilt = Graph(built.labels, built.edge_labels())
    assert rebuilt == built
    assert rebuilt.edge_index == built.edge_index
    assert all(rebuilt.adjacency(i) == built.adjacency(i) for i in range(built.num_vertices))


def test_builder_graphs_equal_the_label_path(suite):
    for g in suite:
        for k in (1, 2, 3):
            for built in _builder_graphs(g, k):
                _assert_label_path_agrees(built)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.text("abc", min_size=1, max_size=3), min_size=2, max_size=5, unique=True),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(0, 10**6),
)
def test_builder_graphs_equal_the_label_path_on_random_labels(labels, extra, k, seed):
    shape = random_connected_graph(len(labels), extra, seed)
    g = Graph(labels, [(labels[i], labels[j]) for i, j in shape.edges])
    for built in _builder_graphs(g, k):
        _assert_label_path_agrees(built)


# --- the rank-numbered builder against the dict-based one it replaced ---


def _reference_build_reduced_power(base: Graph, k: int):
    """States, labels, edges and annotations of the power, from a word -> state dict.

    Every move's ends are looked up by their sorted words; the graph goes
    through the label path of ``Graph``.
    """
    from itertools import combinations_with_replacement

    from redpow.power import _state_labels

    v = base.num_vertices
    words = list(combinations_with_replacement(range(v), k))
    word_index = {w: i for i, w in enumerate(words)}
    moves = {}
    for i, j in base.edges:
        for fw in combinations_with_replacement(range(v), k - 1):
            x = word_index[tuple(sorted(fw + (i,)))]
            y = word_index[tuple(sorted(fw + (j,)))]
            moves[(x, y) if x < y else (y, x)] = (i, j, fw)
    states = tuple(Monomial.from_word(w, v) for w in words)
    labels = _state_labels(base, states)
    graph = Graph(labels, [(labels[x], labels[y]) for x, y in moves])
    annotations = tuple(
        (i, j, Monomial.from_word(fw, v)) for i, j, fw in (moves[pair] for pair in graph.edges)
    )
    return states, graph, annotations, word_index


def _assert_power_matches_reference(g: Graph, k: int) -> None:
    rp = build_reduced_power(g, k)
    states, graph, annotations, word_index = _reference_build_reduced_power(g, k)
    assert rp.states == states
    assert rp.graph.labels == graph.labels
    assert rp.graph.edges == graph.edges
    assert rp.annotations == annotations
    assert all(rp.state_of(w) == x for w, x in word_index.items())


def test_rank_numbered_power_equals_the_dict_reference(suite):
    for g in suite:
        for k in (1, 2, 3, 4, 5):
            _assert_power_matches_reference(g, k)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(0, 10**6),
)
def test_rank_numbered_power_equals_the_dict_reference_on_random_bases(v, extra, k, seed):
    _assert_power_matches_reference(random_connected_graph(v, extra, seed), k)


def test_rank_numbered_power_of_p3_at_k40_stays_in_range():
    # v**k radix codes would need 64 bits already at 3**41; ranks stay below 861
    g = path_graph(3)
    assert 3**40 > 2**63
    _assert_power_matches_reference(g, 40)
    assert build_reduced_power(g, 40).num_states == vertex_count(3, 40) == 861


def test_word_ranks_count_the_words_before_each_word():
    from itertools import combinations_with_replacement

    import numpy as np

    from redpow.power import _insert_ranks, _word_ranks

    for v in range(1, 6):
        for k in range(0, 6):
            words = list(combinations_with_replacement(range(v), k))
            rows = np.array(words, dtype=np.int64).reshape(len(words), k)
            assert _word_ranks(rows, v).tolist() == list(range(len(words)))
            # rows in shuffled order, each with its letters shuffled, and a leading axis
            rng = np.random.default_rng(10 * v + k)
            order = rng.permutation(len(words))
            assert _word_ranks(rng.permuted(rows[order], axis=1), v).tolist() == order.tolist()
            picks = rng.integers(0, len(words), size=(len(words), 4))
            assert _word_ranks(rng.permuted(rows[picks], axis=2), v).tolist() == picks.tolist()
            if k:
                index = {w: i for i, w in enumerate(words)}
                stays, ranks = _insert_ranks(v, k)
                assert stays == list(combinations_with_replacement(range(v), k - 1))
                for m, fw in enumerate(stays):
                    for i in range(v):
                        assert ranks[m, i] == index[tuple(sorted(fw + (i,)))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_of_words_counts_each_word_like_from_word(data):
    size = data.draw(st.integers(1, 8) | st.integers(1000, 5000))
    k = data.draw(st.integers(0, 5))
    word = st.lists(st.integers(0, size - 1), min_size=k, max_size=k).map(lambda w: tuple(sorted(w)))
    words = data.draw(st.lists(word, max_size=6))
    assert Monomial._of_words(words, size) == [Monomial.from_word(w, size) for w in words]
    # an oracle that shares no code with either: count each vertex in the word
    counted = [Monomial(tuple(w.count(i) for i in range(size))) for w in words]
    assert Monomial._of_words(words, size) == counted


def test_of_words_counts_the_empty_stay_word_on_thousands_of_vertices():
    (stay,) = Monomial._of_words([()], 3000)
    assert stay == Monomial.from_word((), 3000) and stay.exponents == (0,) * 3000


def test_quotient_check_builds_no_python_views_of_the_product():
    g = cycle_graph(4)
    p = cartesian_power(g, 3)
    rp = quotient_by_symmetry(p, g, 3)
    assert rp.graph == build_reduced_power(g, 3).graph
    # the slot descriptors read the slots without building them
    for slot in (Graph.edges, Graph._adj, Graph._edge_index):
        with pytest.raises(AttributeError):
            slot.__get__(p)
    assert p.num_edges == 3 * 4 * 4**2
    assert p.adjacency(0) == (1, 3, 4, 12, 16, 48)  # built on this first read, then kept
    assert Graph._adj.__get__(p)[0] == (1, 3, 4, 12, 16, 48)


_WORD_LABELS = ("a", "bc", "ab", "c", "x^2", "1")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.lists(st.integers(0, 5), max_size=9))
def test_labels_rendered_from_words_equal_the_monomial_strings(v, raw):
    from redpow.power import _render_word

    labels = _WORD_LABELS[:v]
    word = tuple(sorted(i % v for i in raw))
    m = Monomial.from_word(word, v)
    # the factors read off the exponents, one per vertex in order
    parts = [lab if e == 1 else f"{lab}^{e}" for lab, e in zip(labels, m.exponents) if e]
    assert m.to_string(labels) == ("".join(parts) or "1")
    starred = _render_word(labels, word, "*")  # no label here holds a '*'
    assert starred == ("*".join(parts) or "1")
    assert starred.count("*") == max(len(set(word)) - 1, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_state_labels_from_words_equal_those_from_monomials(k):
    from itertools import combinations_with_replacement

    from redpow.power import _state_labels

    g = _labelled_path(OVERLAPPING)
    words = list(combinations_with_replacement(range(4), k))
    states = tuple(Monomial.from_word(w, 4) for w in words)
    labels = _state_labels(g, states, words)
    assert labels == _state_labels(g, states)
    assert len(set(labels)) == len(labels)
    assert [lab.replace("*", "") for lab in labels] == [m.to_string(g.labels) for m in states]
    assert ("a*bc" in labels) == (k == 2)


def test_power_helpers_refuse_arguments_out_of_range():
    with pytest.raises(PowerError, match="label tuple does not match exponent length"):
        Monomial((1, 0)).to_string(("a",))
    with pytest.raises(PowerError, match="vertex_count needs v >= 1 and k >= 1"):
        vertex_count(0, 1)
    with pytest.raises(PowerError, match="edge_count needs v >= 1, k >= 1, e >= 0"):
        edge_count(-1, 1, 1)
    with pytest.raises(PowerError, match="k must be >= 1"):
        cartesian_power(cycle_graph(3), 0)


def test_equal_reduced_powers_hash_compare_and_print_alike():
    a, b = build_reduced_power(cycle_graph(4), 2), build_reduced_power(cycle_graph(4), 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "ReducedPowerGraph(k=2, states=10, edges=16)"
    assert (a == 3) is False and (a.graph == 3) is False


# --- the integer rule: operator.index, and for a vertex index range(n) ---

_FAR = 10**5000  # str() refuses it: more than 4300 digits


@pytest.mark.parametrize(
    "exponents,message",
    [
        ((1.5, 0, 0), "exponent 1.5 is not an integer"),
        ((0, "1", 0), "exponent '1' is not an integer"),
        ((1, -_FAR, 0), "negative exponent in of more than 4000 digits"),
    ],
    ids=["float", "string", "far"],
)
def test_monomial_refuses_an_exponent_by_the_integer_rule(exponents, message):
    with pytest.raises(PowerError) as info:
        Monomial(exponents)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "bad,message",
    [
        (1.0, "vertex index 1.0 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (_FAR, "vertex index of more than 4000 digits out of range for size 3"),
    ],
    ids=["float", "string", "far"],
)
def test_monomial_from_word_refuses_a_vertex_index_by_the_integer_rule(bad, message):
    with pytest.raises(PowerError) as info:
        Monomial.from_word((0, bad), 3)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "bad,message",
    [
        (1.5, "vertex index 1.5 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (_FAR, "vertex index of more than 4000 digits out of range"),
    ],
    ids=["float", "string", "far"],
)
def test_monomial_times_refuses_a_vertex_index_by_the_integer_rule(bad, message):
    with pytest.raises(PowerError) as info:
        Monomial((1, 0, 0)).times(bad)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "tokens,message",
    [
        ((0, 2.0), "tokens (0, 2.0) are not a state of this power: token 2.0 is not an integer"),
        (("2", 0), "tokens ('2', 0) are not a state of this power: token '2' is not an integer"),
        ((0, _FAR), "tokens of more than 4000 digits are not a state of this power"),
    ],
    ids=["float", "string", "far"],
)
def test_state_of_refuses_a_token_by_the_integer_rule(tokens, message):
    rp = build_reduced_power(cycle_graph(5), 2)
    with pytest.raises(PowerError) as info:
        rp.state_of(tokens)
    assert str(info.value) == message


def test_integer_tokens_of_every_integer_type_keep_their_results():
    rp = build_reduced_power(cycle_graph(5), 2)
    assert rp.state_of((np.int64(1), 2)) == rp.state_of((1, 2)) == rp.state_of((True, 2)) == 6
    for one in (1, np.int64(1), True):
        m = Monomial((one, 0, 2))
        assert m.exponents == (1, 0, 2) and all(type(e) is int for e in m.exponents)
        assert Monomial.from_word((0, one, one), 3) == Monomial((1, 2, 0))
        assert Monomial((1, 0, 0)).times(one) == Monomial((1, 1, 0))


# --- token counts and index accessors follow the same rule ---

_TRIANGLE = cycle_graph(3)


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_build_reduced_power_refuses_k_by_the_integer_rule(kind):
    assert_count_refused(lambda k: build_reduced_power(_TRIANGLE, k), "k", "k must be >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_cartesian_power_refuses_k_by_the_integer_rule(kind):
    assert_count_refused(lambda k: cartesian_power(_TRIANGLE, k), "k", "k must be >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_quotient_by_symmetry_refuses_k_by_the_integer_rule(kind):
    product_graph = cartesian_power(_TRIANGLE, 2)
    call = lambda k: quotient_by_symmetry(product_graph, _TRIANGLE, k)  # noqa: E731
    assert_count_refused(call, "k", "k must be >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@pytest.mark.parametrize("field", ["v", "k"])
def test_vertex_count_refuses_a_count_by_the_integer_rule(field, kind):
    call = lambda n: vertex_count(n, 2) if field == "v" else vertex_count(3, n)  # noqa: E731
    assert_count_refused(call, field, "vertex_count needs v >= 1 and k >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@pytest.mark.parametrize("field", ["e", "v", "k"])
def test_edge_count_refuses_a_count_by_the_integer_rule(field, kind):
    call = lambda n: edge_count(*{"e": (n, 3, 2), "v": (3, n, 2), "k": (3, 3, n)}[field])  # noqa: E731
    least = 0 if field == "e" else 1
    assert_count_refused(call, field, "edge_count needs v >= 1, k >= 1, e >= 0", least, kind)


_INDEX_KINDS = {"float": 1.0, "string": "1", "negative": -1, "far": _FAR}


@pytest.mark.parametrize("kind", list(_INDEX_KINDS))
@pytest.mark.parametrize(
    "accessor,what", [("label", "state index"), ("annotation", "edge index")]
)
def test_power_index_accessors_refuse_an_index_by_the_integer_rule(accessor, what, kind):
    bad = _INDEX_KINDS[kind]
    with pytest.raises(PowerError) as info:
        getattr(build_reduced_power(_TRIANGLE, 2), accessor)(bad)
    if kind in ("float", "string"):
        assert str(info.value) == f"{what} {bad!r} is not an integer"
    else:
        shown = -1 if kind == "negative" else "of more than 4000 digits"
        assert str(info.value) == f"{what} {shown} is out of range"


def test_token_counts_of_every_integer_type_keep_their_results():
    rp = build_reduced_power(_TRIANGLE, 2)
    for two in (np.int64(2), np.int32(2)):
        assert build_reduced_power(_TRIANGLE, two) == rp
        assert build_reduced_power(_TRIANGLE, two).annotations == rp.annotations
        assert cartesian_power(_TRIANGLE, two) == cartesian_power(_TRIANGLE, 2)
        quotient = quotient_by_symmetry(cartesian_power(_TRIANGLE, 2), _TRIANGLE, two)
        assert quotient == rp and quotient.annotations == rp.annotations
        assert vertex_count(np.int64(3), two) == vertex_count(3, 2) == 6
        assert edge_count(np.int64(3), np.int64(3), two) == edge_count(3, 3, 2) == 9
        for out in (build_reduced_power(_TRIANGLE, two).k, quotient.k, vertex_count(3, two)):
            assert type(out) is int
    assert build_reduced_power(_TRIANGLE, True) == build_reduced_power(_TRIANGLE, 1)
    assert type(build_reduced_power(_TRIANGLE, True).k) is int
    assert edge_count(False, 3, True) == 0 and vertex_count(True, 5) == 1
    for i in (np.int64(4), True):
        assert rp.label(i) == rp.label(int(i))
        assert rp.annotation(i) == rp.annotation(int(i))


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_cartesian_power_refuses_a_budget_by_the_integer_rule(kind):
    call = lambda budget: cartesian_power(_TRIANGLE, 2, budget=budget)  # noqa: E731
    assert_count_refused(call, "budget", "budget must be >= 0", 0, kind)


def test_cartesian_power_refuses_a_float_budget_as_not_an_integer():
    with pytest.raises(PowerError) as info:
        cartesian_power(_TRIANGLE, 2, budget=1e6)
    assert str(info.value) == "budget 1000000.0 is not an integer"


def test_cartesian_power_budget_of_every_integer_type_keeps_its_product():
    square = cartesian_power(_TRIANGLE, 2)
    for budget in (9, np.int64(9), np.int32(9)):
        assert cartesian_power(_TRIANGLE, 2, budget=budget) == square
        with pytest.raises(PowerError) as info:
            cartesian_power(_TRIANGLE, 2, budget=budget - 1)
        assert str(info.value) == "3^2 states exceed budget 8"
    single = cartesian_power(path_graph(1), 3, budget=True)
    assert single == cartesian_power(path_graph(1), 3, budget=1)
    with pytest.raises(PowerError, match="states exceed budget 0"):
        cartesian_power(_TRIANGLE, 1, budget=False)


@pytest.mark.parametrize("k", [10**7, 10**12])
def test_cartesian_power_refuses_a_huge_k_before_computing_its_count(k):
    # 3**k would take 2 s at k = 10**7 and never end at 10**12
    with pytest.raises(PowerError) as info:
        cartesian_power(_TRIANGLE, k)
    assert str(info.value) == f"3^{k} states exceed budget 1000000"
    with pytest.raises(PowerError) as info:
        cartesian_power(_TRIANGLE, k, budget=10**100)
    assert str(info.value) == f"3^{k} states exceed budget {10**100}"
    with pytest.raises(PowerError) as info:
        cartesian_power(path_graph(1), k, budget=0)  # one state at any k
    assert str(info.value) == f"1^{k} states exceed budget 0"


def test_cartesian_power_refuses_a_one_vertex_k_past_the_label_bound():
    # one state at every k: unbounded, the label alone takes 2 TB at k = 10**12.
    # 10**7 goes first, which an unbounded build fails in under a second.
    for k, shown in ((10**7, 10**7), (10**12, 10**12), (10**5000, "of more than 4000 digits")):
        with pytest.raises(PowerError) as info:
            cartesian_power(path_graph(1), k)
        assert str(info.value) == f"k = {shown} passes the bound of 1000000 label coordinates"


def test_cartesian_power_builds_a_one_vertex_power_at_the_label_bound():
    single = cartesian_power(path_graph(1), _LABEL_COORDS)
    assert (single.num_vertices, single.num_edges) == (1, 0)
    assert single.labels == (",".join(["v0"] * _LABEL_COORDS),)


@pytest.mark.parametrize("k", [10**7, 10**12])
def test_quotient_by_symmetry_refuses_a_huge_k_before_computing_its_count(k):
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(cartesian_power(_TRIANGLE, 2), _TRIANGLE, k)
    assert str(info.value) == f"power has 9 vertices, expected 3^{k}, more than that"
    single = path_graph(1)
    with pytest.raises(PowerError) as info:  # one state at any k: the label tells
        quotient_by_symmetry(cartesian_power(single, 3), single, k)
    assert str(info.value) == f"vertex label 'v0,v0,v0' is not a {k}-tuple of base labels"


def test_power_counts_keep_their_messages_below_the_bit_length_bound():
    with pytest.raises(PowerError) as info:
        cartesian_power(_TRIANGLE, 19)  # 19 < 20 bits of the budget: 3**19 is computed
    assert str(info.value) == "3^19 states exceed budget 1000000"
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(cartesian_power(_TRIANGLE, 2), _TRIANGLE, 3)
    assert str(info.value) == "power has 9 vertices, expected 3^3 = 27"
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(cartesian_power(_TRIANGLE, 2), _TRIANGLE, 4)  # 4 bits of 9
    assert str(info.value) == "power has 9 vertices, expected 3^4, more than that"


# --- states built on first read, and the state budget ---


def test_a_built_power_makes_its_states_once_and_only_when_read(monkeypatch):
    from redpow.power import ReducedPowerGraph

    words = []
    of_words = Monomial._of_words.__func__
    counted = classmethod(lambda cls, ws, size: words.append(len(ws)) or of_words(cls, ws, size))
    monkeypatch.setattr(Monomial, "_of_words", counted)
    g = cycle_graph(5)
    for build in (build_reduced_power, lambda g, k: quotient_by_symmetry(cartesian_power(g, k), g, k)):
        rp = build(g, 3)
        assert words == [15]  # one monomial per stay word, none per state
        with pytest.raises(AttributeError):
            ReducedPowerGraph.states.__get__(rp)
        assert rp.num_states == 35 and rp.label(34) == "v4^3"
        first = rp.states
        assert rp.states is first and ReducedPowerGraph.states.__get__(rp) is first
        assert words == [15, 35]
        assert first == tuple(Monomial.from_word(w, 5) for w in combinations_with_replacement(range(5), 3))
        words.clear()
    with pytest.raises(AttributeError, match=r"^'ReducedPowerGraph' object has no attribute 'nothing'$"):
        rp.nothing


def test_an_over_budget_power_is_refused_before_anything_is_allocated(monkeypatch):
    from redpow import RateSpec, bfs_spanning_tree, build_master, decomposition_basis, power, verify_square_space

    def sentinel(v, k):
        raise AssertionError(f"_insert_ranks called at v = {v}, k = {k}")

    monkeypatch.setattr(power, "_insert_ranks", sentinel)
    wide, one = random_connected_graph(14, 10, seed=3), Graph(["a"], [])
    cases = [
        (wide, 60, f"power has {vertex_count(14, 60)} states, over the budget of 5000"),
        (one, 10**9, "power has k = 1000000000, over the budget of 5000"),
        (one, 10**40, "power has k = 10^30 or more, over the budget of 5000"),
        (cycle_graph(3), 99, "power has 5050 states, over the budget of 5000"),
    ]
    for g, k, message in cases:
        calls = (
            lambda: build_reduced_power(g, k),
            lambda: decomposition_basis(g, k),
            lambda: verify_square_space(g, bfs_spanning_tree(g), k),
            lambda: build_master(g, k, RateSpec(g, {pair: 1 for i, j in g.edges for pair in ((i, j), (j, i))})),
        )
        for call in calls:
            with pytest.raises(PowerError) as info:
                call()
            assert str(info.value) == message
    monkeypatch.undo()
    assert build_reduced_power(cycle_graph(3), 98).num_states == 4950  # the budget is inclusive
    assert build_reduced_power(one, 5000).label(0) == "a^5000"


# --- the one-pass label parse, the kept edges' moves and the parse's memory ---


def _relabelled_at(g: Graph, k: int, changes: dict[int, str]) -> tuple[Graph, list[str]]:
    power = cartesian_power(g, k)
    labels = list(power.labels)
    for at, label in changes.items():
        labels[at] = label
    return Graph._from_pairs(labels, power.pairs), labels


@pytest.mark.parametrize(
    "changes, named",
    [
        ({3: "v0,v0", 7: "v0,v1,v3,v2"}, 3),  # one comma too few, then one too many
        ({3: "v0,v1,v3,v2", 7: "v0,v0"}, 3),  # one too many, then one too few
        ({1: "v0,zz,v1", 5: "v1,v1"}, 5),  # a shape fault wins over an earlier unknown part
        ({4: "v0,v0,v0,", 9: ",v1,v0,v2"}, 4),  # an empty last or first part is a comma too many
    ],
)
def test_the_quotient_names_the_first_label_of_the_wrong_shape(changes, named):
    power, labels = _relabelled_at(cycle_graph(4), 3, changes)
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(power, cycle_graph(4), 3)
    assert str(info.value) == f"vertex label {labels[named]!r} is not a 3-tuple of base labels"


@pytest.mark.parametrize(
    "changes, unknown",
    [
        ({5: "v0,zz,v1,v0,v0,v0,v0", 6: "yy,v0,v0,v0,v0,v0,v0"}, "zz"),
        ({4097: "v0,v1,v2,v3,v0,v1,xx", 4098: "ww,v0,v0,v0,v0,v0,v0"}, "xx"),  # past the first slice
        ({9000: "v0,v0,v0,,v0,v0,v0", 12000: "qq,v0,v0,v0,v0,v0,v0"}, ""),  # an empty part
        ({16383: "v3,v3,v3,v3,v3,v3,v"}, "v"),  # the last part of the last label
    ],
)
def test_the_quotient_names_the_first_part_that_is_no_base_label(changes, unknown):
    power, _ = _relabelled_at(cycle_graph(4), 7, changes)
    with pytest.raises(GraphError) as info:
        quotient_by_symmetry(power, cycle_graph(4), 7)
    assert str(info.value) == f"unknown vertex label {unknown!r}"


def test_the_quotient_refuses_an_edge_that_changes_two_coordinates_among_valid_ones():
    g = cycle_graph(4)
    power = cartesian_power(g, 3)
    edges = power.edge_labels()
    edges[5] = ("v0,v2,v0", "v1,v3,v0")  # the edge count stays; this one moves two tokens
    with pytest.raises(PowerError) as info:
        quotient_by_symmetry(Graph(power.labels, edges), g, 3)
    assert str(info.value) == "product edge changes more than one coordinate"


def test_every_power_keeps_the_index_of_each_move_s_base_edge():
    from redpow import ReducedPowerGraph

    for g in generator_suite():
        for k in (1, 2, 3):
            built = build_reduced_power(g, k)
            powers = [
                built,
                quotient_by_symmetry(cartesian_power(g, k), g, k),
                ReducedPowerGraph(g, k, built.states, built.graph, built.annotations),
                _reference_quotient(cartesian_power(g, k), g, k),
            ]
            expected = [g.edge_position(i, j) for i, j, _ in built.annotations]
            for rp in powers:
                assert rp._moves.shape == (built.num_edges, 4)
                assert rp._moves[:, 3].tolist() == expected
                assert rp._moves[:, :2].tolist() == [[i, j] for i, j, _ in built.annotations]


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_the_quotient_of_a_product_listed_in_another_vertex_order_is_the_power(order):
    """Product edges then run from the higher base vertex as often as from the lower one."""
    import random

    for g in generator_suite():
        for k in (1, 2, 3):
            power = cartesian_power(g, k)
            n = power.num_vertices
            where = list(range(n))[::-1] if order == "reversed" else random.Random(n * k).sample(range(n), n)
            labels = [""] * n
            for t, at in enumerate(where):
                labels[at] = power.labels[t]
            moved = np.array(where)[power.pairs]
            listed = Graph._from_pairs(labels, np.sort(moved, axis=1))
            direct, oracle = build_reduced_power(g, k), quotient_by_symmetry(listed, g, k)
            assert oracle == direct and oracle.annotations == direct.annotations
            assert np.array_equal(oracle._moves, direct._moves)


def _random_bipartite(v: int, extra: int, seed: int) -> Graph:
    """A random tree on ``v`` vertices plus ``extra`` chords across its 2-colouring."""
    import random

    rng = random.Random(seed)
    side, edges = [0] * v, set()
    for i in range(1, v):
        parent = rng.randrange(i)
        side[i] = 1 - side[parent]
        edges.add((parent, i))
    pool = [(i, j) for i in range(v) for j in range(i + 1, v) if side[i] != side[j] and (i, j) not in edges]
    edges.update(rng.sample(pool, extra))
    labels = [f"bp{i}" for i in range(v)]
    return Graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])


def test_the_quotient_of_a_32768_tuple_product_peaks_below_the_label_by_label_parse():
    # the label-by-label parse peaked at 16.6 MiB here, the product's 7.3 MiB included,
    # and splitting the joined labels in one piece at 18.6 MiB
    g = _random_bipartite(8, 3, seed=2)
    assert (g.num_vertices, g.num_edges) == (8, 10)
    tracemalloc.start()
    try:
        power = cartesian_power(g, 5)
        tracemalloc.reset_peak()
        oracle = quotient_by_symmetry(power, g, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16.6 * 2**20
    assert oracle == build_reduced_power(g, 5) and oracle.annotations == build_reduced_power(g, 5).annotations


# --- one record of the moves: annotations and stay counts read from it ---


def _slots_set(rp) -> set[str]:
    """The slots of ``rp`` that hold a value, read without building anything."""
    from redpow import ReducedPowerGraph

    held = set()
    for name in ReducedPowerGraph.__slots__:
        try:
            getattr(ReducedPowerGraph, name).__get__(rp)
        except AttributeError:
            continue
        held.add(name)
    return held


def test_a_power_holds_its_moves_once_and_reads_each_annotation_off_them(suite):
    from redpow import ReducedPowerGraph

    record = {"base", "k", "graph", "_moves", "_stays"}
    for g in suite:
        for k in (1, 2, 3):
            _, _, reference, _ = _reference_build_reduced_power(g, k)
            built = build_reduced_power(g, k)
            powers = [
                (lambda: built, record | {"_make_states"}),
                (lambda: quotient_by_symmetry(cartesian_power(g, k), g, k), record | {"_make_states"}),
                (lambda: ReducedPowerGraph(g, k, built.states, built.graph, reference), record | {"states"}),
            ]
            for make, held in powers:
                rp = make()
                assert _slots_set(rp) == held
                read = [rp.annotation(e) for e in range(rp.num_edges)]
                assert _slots_set(rp) == held  # annotation(e) reads one row of the record
                assert read == list(rp.annotations) == list(reference)
                assert "annotations" in _slots_set(rp) and rp.annotations is rp.annotations
                assert len(rp._stays) == len(set(rp._stays))  # each stay monomial once


def _bincounts(words: list, v: int, k: int) -> np.ndarray:
    """Row ``s``: the tokens of stay word ``words[s]`` on each of the ``v`` vertices."""
    n = len(words)
    cells = np.arange(n)[:, None] * v + np.array(words, dtype=np.int64).reshape(n, k - 1)
    return np.bincount(cells.ravel(), minlength=n * v).reshape(n, v)


def test_stay_counts_are_the_bincounts_of_the_stay_words(suite):
    from redpow import ReducedPowerGraph

    for g in suite:
        v = g.num_vertices
        for k in (1, 2, 3, 4):
            built = build_reduced_power(g, k)
            public = ReducedPowerGraph(g, k, built.states, built.graph, built.annotations)
            every = list(combinations_with_replacement(range(v), k - 1))
            first_used = list(dict.fromkeys(f.word() for _, _, f in built.annotations))
            powers = [(built, every), (quotient_by_symmetry(cartesian_power(g, k), g, k), every), (public, first_used)]
            for rp, words in powers:
                assert [f.word() for f in rp._stays] == words
                counts = rp._stay_counts
                assert counts.dtype == np.int64 and not counts.flags.writeable
                assert np.array_equal(counts, _bincounts(words, v, k))


def _path_abc_power():
    from redpow import ReducedPowerGraph

    g = path_graph(3, "abc")
    built = build_reduced_power(g, 2)
    return g, built, lambda annotations: ReducedPowerGraph(g, 2, built.states, built.graph, annotations)


def test_the_public_constructor_refuses_a_move_along_no_base_edge_naming_the_annotation():
    g, built, public = _path_abc_power()
    ann = list(built.annotations)
    f = ann[0][2]
    cases = [
        (0, (0, 2, f), "annotation 0: (0, 2) is no base edge (i, j) with i < j"),  # a and c
        (3, (2, 1, f), "annotation 3: (2, 1) is no base edge (i, j) with i < j"),  # b-c the wrong way round
        (2, (1, 1, f), "annotation 2: (1, 1) is no base edge (i, j) with i < j"),
        (1, (0, 3, f), "annotation 1: (0, 3) is no base edge (i, j) with i < j"),  # no vertex 3
        (1, (0.0, 1, f), "annotation 1: (0.0, 1) is no base edge (i, j) with i < j"),  # no integer
    ]
    for at, move, message in cases:
        with pytest.raises(PowerError) as info:
            public(tuple(ann[:at] + [move] + ann[at + 1 :]))
        assert str(info.value) == message


def test_the_public_constructor_refuses_a_stay_that_is_no_monomial_of_k_minus_1_tokens():
    g, built, public = _path_abc_power()
    ann = list(built.annotations)
    cases = [
        Monomial((1, 0, 0, 0)),  # four vertices on a three-vertex base
        Monomial((0, 0, 0)),  # degree 0 at k = 2
        Monomial((1, 1, 0)),  # degree 2
        (1, 0, 0),  # no Monomial
    ]
    for f in cases:
        for at in (0, len(ann) - 1):
            with pytest.raises(PowerError) as info:
                public(tuple(ann[:at] + [ann[at][:2] + (f,)] + ann[at + 1 :]))
            assert str(info.value) == f"annotation {at}: stay {f!r} does not have 3 exponents summing to 1"


def test_the_public_constructor_refuses_an_annotation_that_is_no_triple_naming_it():
    g, built, public = _path_abc_power()
    ann = list(built.annotations)
    cases = [(0, (0, 1)), (2, (0, 1, ann[2][2], 0)), (5, 7), (3, None)]
    for at, entry in cases:
        with pytest.raises(PowerError) as info:
            public(tuple(ann[:at] + [entry] + ann[at + 1 :]))
        assert str(info.value) == f"annotation {at}: {entry!r} is no triple (i, j, f)"


def test_the_public_constructor_refuses_an_annotation_count_other_than_the_edge_count():
    g, built, public = _path_abc_power()
    ann = tuple(built.annotations)
    assert built.num_edges == 6
    for wrong in (ann[:-1], ann + ann[:1], ()):
        with pytest.raises(PowerError) as info:
            public(wrong)
        assert str(info.value) == f"{len(wrong)} annotations for a power of 6 edges"


def test_the_public_constructor_names_the_first_faulty_annotation_and_takes_a_consistent_one():
    g, built, public = _path_abc_power()
    ann = list(built.annotations)
    wrong = list(ann)
    wrong[1] = ann[1][:2] + (Monomial((0, 2, 0)),)
    wrong[2] = (0, 2, ann[2][2])
    with pytest.raises(PowerError, match=r"^annotation 1: "):
        public(tuple(wrong))
    wrong[1] = ann[1]
    with pytest.raises(PowerError, match=r"^annotation 2: "):
        public(tuple(wrong))
    # consistency with the graph is not checked: a valid move on the wrong edge is taken
    swapped = public((ann[1],) + tuple(ann[1:]))
    assert swapped == built and swapped.annotations == (ann[1],) + tuple(ann[1:]) != built.annotations
