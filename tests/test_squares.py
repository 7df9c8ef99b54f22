"""Cartesian square families, decomposition basis, square-space checks."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    CartesianSquare,
    Graph,
    GraphError,
    Monomial,
    PowerError,
    RootedTree,
    betti,
    bfs_spanning_tree,
    build_reduced_power,
    chord_pair_squares,
    chord_square_count,
    decomposition_basis,
    embed_cycle,
    fundamental_cycles,
    greedy_mcb,
    is_cycle,
    project_to_base,
    rank,
    tree_pair_squares,
    tree_square_count,
    verify_square_space,
)

from redpow.graph import check_spanning_tree
from redpow.squares import _decomposition_on, _square_words, _structured_cycles

from conftest import (
    COUNT_KINDS,
    assert_count_refused,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
)


def path_tree(n: int) -> RootedTree:
    return RootedTree(0, {i: i - 1 for i in range(1, n)}, tuple(range(n)))


# --- single squares ---


def test_square_states_disjoint_edges():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 2)
    sq = CartesianSquare((0, 1), (2, 3), Monomial((0,) * 5))
    states = sq.states(rp)
    labels = [rp.label(s) for s in states]
    assert labels == ["ac", "bc", "bd", "ad"]
    vec = sq.edge_vector(rp)
    assert vec.size == 4
    assert is_cycle(vec)
    assert project_to_base(vec).is_zero


def test_square_states_shared_endpoint():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 2)
    sq = CartesianSquare((0, 1), (1, 2), Monomial((0,) * 5))
    labels = [rp.label(s) for s in sq.states(rp)]
    assert labels == ["ab", "b^2", "bc", "ac"]
    assert sq.edge_vector(rp).size == 4


def test_square_rejects_same_edge():
    with pytest.raises(PowerError, match="distinct edges"):
        CartesianSquare((0, 1), (1, 0), Monomial((0,) * 5))


def test_square_rejects_wrong_degree_or_non_edge():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 2)
    with pytest.raises(PowerError, match="degree"):
        CartesianSquare((0, 1), (2, 3), Monomial((1, 0, 0, 0, 0))).states(rp)
    with pytest.raises(PowerError, match="not an edge"):
        CartesianSquare((0, 2), (2, 3), Monomial((0,) * 5)).states(rp)


@pytest.mark.parametrize(
    "edge1,edge2,message",
    [
        ((0, 1), (1, [2]), "square edge end [2] is not an integer"),
        (([0], 1), (1, 2), "square edge end [0] is not an integer"),
        ((0, 1.5), ({2}, 3), "square edge end 1.5 is not an integer"),
    ],
)
def test_square_refuses_an_unhashable_edge_end_by_name(edge1, edge2, message):
    with pytest.raises(PowerError) as info:
        CartesianSquare(edge1, edge2, Monomial((0,) * 5))
    assert str(info.value) == message


class _UnhashableIndex:
    """An edge end with ``__index__`` and no hash."""

    __hash__ = None

    def __init__(self, i: int):
        self.i = i

    def __index__(self) -> int:
        return self.i


def test_a_square_compares_unhashable_edge_ends_by_the_integer_rule():
    two = _UnhashableIndex(2)
    assert CartesianSquare((0, 1), (two, 3), Monomial((0,) * 5)).edge2 == (two, 3)
    with pytest.raises(PowerError) as info:
        CartesianSquare((_UnhashableIndex(1), 0), (0, 1), Monomial((0,) * 5))
    assert str(info.value) == "a Cartesian square needs two distinct edges"


def test_square_describe():
    sq = CartesianSquare((0, 1), (2, 3), Monomial((1, 0, 0, 0, 0)))
    assert sq.describe(("a", "b", "c", "d", "e")) == "(ab x cd) f=a"


# --- families ---


def test_family_sizes_pentagon():
    g = cycle_graph(5, "abcde")
    t = bfs_spanning_tree(g, 0)
    assert len(tree_pair_squares(g, t, 3)) == 26 == tree_square_count(5, 3)
    assert len(chord_pair_squares(g, t, 3)) == 14 == chord_square_count(1, 5, 3)
    assert len(tree_pair_squares(g, t, 2)) == 6 == tree_square_count(5, 2)
    assert len(chord_pair_squares(g, t, 2)) == 4 == chord_square_count(1, 5, 2)


def test_family_sizes_with_path_tree():
    g = cycle_graph(5, "abcde")
    t = path_tree(5)
    assert len(tree_pair_squares(g, t, 3)) == 26
    assert len(chord_pair_squares(g, t, 3)) == 14
    report = verify_square_space(g, t, 3)
    assert report.passed


def test_family_sizes_match_formulas(suite):
    for g in suite:
        t = bfs_spanning_tree(g, 0)
        b = betti(g)
        for k in (2, 3, 4):
            assert len(tree_pair_squares(g, t, k)) == tree_square_count(g.num_vertices, k)
            assert len(chord_pair_squares(g, t, k)) == chord_square_count(b, g.num_vertices, k)


def test_families_warn_for_small_k():
    g = cycle_graph(4)
    t = bfs_spanning_tree(g, 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert tree_pair_squares(g, t, 1) == []
        assert chord_pair_squares(g, t, 1) == []
    assert len(caught) == 2
    assert "k < 2" in str(caught[0].message)


def test_families_reject_depth_violating_tree():
    g = cycle_graph(5, "abcde")
    # same spanning tree, once with a depth-respecting order and once without
    t = RootedTree(0, {1: 0, 2: 1, 3: 2, 4: 0}, (0, 1, 4, 2, 3))
    bad = RootedTree(0, {1: 0, 2: 1, 3: 2, 4: 0}, (0, 1, 2, 3, 4))
    tree_pair_squares(g, t, 2)
    with pytest.raises(GraphError, match="non-decreasing in depth"):
        tree_pair_squares(g, bad, 2)


# --- embedding ---


def test_embed_cycle_validates():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 3)
    with pytest.raises(PowerError, match="degree"):
        embed_cycle(rp, (0, 1, 2, 3, 4), Monomial((1, 0, 0, 0, 0)))
    emb = embed_cycle(rp, (0, 1, 2, 3, 4), Monomial((2, 0, 0, 0, 0)))
    assert emb.size == 5
    assert is_cycle(emb)


def test_embed_cycle_refuses_an_unhashable_base_vertex_by_the_integer_rule():
    rp = build_reduced_power(cycle_graph(3), 2)
    with pytest.raises(GraphError) as info:
        embed_cycle(rp, (0, 1, [2]), Monomial((1, 0, 0)))
    assert str(info.value) == "vertex index [2] is not an integer"


def test_embedded_copies_are_independent_of_f_choice():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 3)
    t = bfs_spanning_tree(g, 0)
    squares = [
        sq.edge_vector(rp)
        for sq in tree_pair_squares(g, t, 3) + chord_pair_squares(g, t, 3)
    ]
    for f in (Monomial((2, 0, 0, 0, 0)), Monomial((0, 1, 1, 0, 0)), Monomial((0, 0, 0, 0, 2))):
        emb = embed_cycle(rp, (0, 1, 2, 3, 4), f)
        assert rank(squares + [emb]) == betti(rp.graph)


# --- decomposition basis ---


def test_decomposition_pentagon_k2():
    g = cycle_graph(5, "abcde")
    basis = decomposition_basis(g, 2)
    assert len(basis.elements) == 11
    assert basis.total_length == 45
    assert basis.certified_minimum
    assert basis.kind == "decomposition"
    tags = [info.tag for info in basis.info]
    assert tags.count("embedded") == 1
    assert tags.count("tree-square") == 6
    assert tags.count("chord-square") == 4
    assert basis.total_length == greedy_mcb(build_reduced_power(g, 2)).total_length


def test_decomposition_pentagon_k3():
    g = cycle_graph(5, "abcde")
    basis = decomposition_basis(g, 3)
    assert len(basis.elements) == 41 == betti(basis.host.graph)
    assert basis.total_length == 165
    assert basis.certified_minimum
    assert basis.total_length == greedy_mcb(basis.host).total_length


def test_decomposition_triangle_gap():
    g = cycle_graph(3)
    basis = decomposition_basis(g, 2)
    assert basis.total_length == 15
    assert not basis.certified_minimum
    greedy = greedy_mcb(build_reduced_power(g, 2))
    assert greedy.total_length == 12


def test_decomposition_matches_greedy_on_triangle_free(suite):
    for g in suite:
        from redpow import has_triangles

        if has_triangles(g) or betti(g) > 3:
            continue
        basis = decomposition_basis(g, 2)
        assert basis.certified_minimum
        assert basis.total_length == greedy_mcb(basis.host).total_length


def test_decomposition_root_invariance():
    g = cycle_graph(5, "abcde")
    totals = {decomposition_basis(g, 3, root=r).total_length for r in range(5)}
    assert totals == {165}


def test_decomposition_rejects_k1():
    with pytest.raises(PowerError, match="k >= 2"):
        decomposition_basis(cycle_graph(4), 1)


def test_decomposition_tree_only_base():
    g = path_graph(4)
    basis = decomposition_basis(g, 3)
    assert len(basis.elements) == betti(basis.host.graph)
    assert all(info.tag == "tree-square" for info in basis.info)
    assert basis.certified_minimum


# --- square space verification ---


def test_verify_square_space_suite(suite):
    for g in suite:
        t = bfs_spanning_tree(g, 0)
        for k in (2, 3):
            report = verify_square_space(g, t, k)
            assert report.passed, (g, k, report.as_dict())
            assert report.rank_squares == report.betti_power - report.betti_base


def test_verify_square_space_report_fields():
    g = cycle_graph(5, "abcde")
    report = verify_square_space(g, bfs_spanning_tree(g, 0), 3)
    doc = report.as_dict()
    assert doc["tree_squares"] == doc["tree_squares_formula"] == 26
    assert doc["chord_squares"] == doc["chord_squares_formula"] == 14
    assert doc["betti_power"] == 41
    assert doc["betti_base"] == 1
    assert doc["passed"]


def test_every_square_projects_to_zero(suite):
    for g in suite[:5]:
        t = bfs_spanning_tree(g, 0)
        rp = build_reduced_power(g, 2)
        for sq in tree_pair_squares(g, t, 2) + chord_pair_squares(g, t, 2):
            assert project_to_base(sq.edge_vector(rp)).is_zero


def test_stationary_monomial_must_cover_the_base_vertices():
    # the words of these monomials alone would name states of the power
    rp = build_reduced_power(cycle_graph(5, "abcde"), 3)
    with pytest.raises(PowerError, match="base vertices"):
        CartesianSquare((0, 1), (2, 3), Monomial((1, 0, 0, 0, 0, 0))).states(rp)
    with pytest.raises(PowerError, match="base vertices"):
        CartesianSquare((0, 1), (2, 3), Monomial((1,))).states(rp)
    with pytest.raises(PowerError, match="base vertices"):
        embed_cycle(rp, (0, 1, 2, 3, 4), Monomial((2,)))


# --- reference constructions from the public square families ---


def _reference_structured(g, tree, k):
    """Walks and records of the embedded base MCB and both families, built square by square."""
    from redpow import ElementInfo
    from redpow.cyclespace import _canonical_cycle

    rp = build_reduced_power(g, k)
    f_root = Monomial.from_word((tree.root,) * (k - 1), g.num_vertices)
    cycles, infos = [], []
    for seq in greedy_mcb(g).cycles:
        cycles.append(_canonical_cycle([rp.state_index(f_root.times(c)) for c in seq]))
        infos.append(ElementInfo(tag="embedded", f=f_root))
    for tag, family in (
        ("tree-square", tree_pair_squares(g, tree, k)),
        ("chord-square", chord_pair_squares(g, tree, k)),
    ):
        for sq in family:
            cycles.append(_canonical_cycle(sq.states(rp)))
            edges = (tuple(sorted(sq.edge1)), tuple(sorted(sq.edge2)))
            infos.append(ElementInfo(tag=tag, base_edges=edges, f=sq.f))
    return rp, cycles, infos


def _reference_report(g, tree, k):
    from redpow import SquareSpaceReport, cycle_edge_vector

    rp, cycles, infos = _reference_structured(g, tree, k)
    tags = [info.tag for info in infos]
    n_tree, n_chord = tags.count("tree-square"), tags.count("chord-square")
    vectors = [cycle_edge_vector(rp, seq) for seq in cycles]
    squares = [x for x, tag in zip(vectors, tags) if tag != "embedded"]
    b, v = betti(g), g.num_vertices
    rank_squares = rank(squares)
    return SquareSpaceReport(
        k=k,
        tree_squares=n_tree,
        chord_squares=n_chord,
        tree_squares_formula=tree_square_count(v, k),
        chord_squares_formula=chord_square_count(b, v, k),
        betti_base=b,
        betti_power=betti(rp.graph),
        rank_squares=rank_squares,
        counts_match=(n_tree, n_chord) == (tree_square_count(v, k), chord_square_count(b, v, k)),
        independent=rank_squares == len(squares),
        projects_to_zero=all(project_to_base(x).is_zero for x in squares),
        spans_kernel=rank_squares == betti(rp.graph) - b,
        direct_sum=rank(vectors) == betti(rp.graph),
    )


def test_decomposition_equals_the_square_by_square_reference(suite):
    for g in suite:
        for k in (2, 3, 4):
            for root in range(g.num_vertices):
                basis = decomposition_basis(g, k, root=root)
                _, cycles, infos = _reference_structured(g, bfs_spanning_tree(g, root), k)
                assert basis.cycles == tuple(cycles), (g, k, root)
                assert basis.info == tuple(infos), (g, k, root)


def test_verify_square_space_equals_the_reference_report(suite):
    trees = [(g, bfs_spanning_tree(g, r)) for g in suite for r in (0, g.num_vertices - 1)]
    trees += [(g, path_tree(n)) for g, n in ((cycle_graph(n), n) for n in (3, 4, 5, 6))]
    trees += [(path_graph(4), path_tree(4)), (complete_graph(4), path_tree(4))]
    for g, tree in trees:
        for k in (1, 2, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert verify_square_space(g, tree, k) == _reference_report(g, tree, k), (g, k)


def test_verify_square_space_k1_warns_once():
    g = cycle_graph(5, "abcde")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_square_space(g, bfs_spanning_tree(g, 0), 1)
    assert [str(w.message) for w in caught] == ["no Cartesian squares exist for k < 2"]
    assert report.passed
    assert (report.tree_squares, report.chord_squares, report.rank_squares) == (0, 0, 0)


def test_square_families_follow_the_documented_order(suite):
    from itertools import combinations_with_replacement

    for g in suite:
        t = bfs_spanning_tree(g, g.num_vertices - 1)
        edge = {p: (t.parent[v], v) for p, v in enumerate(t.order) if p}
        chords = [pair for pair in g.edges if pair not in t.tree_pairs()]
        for k in (2, 3, 4):
            fs = {
                j: [Monomial.from_word(w, g.num_vertices) for w in
                    combinations_with_replacement(t.order[: j + 1], k - 2)]
                for j in edge
            }
            tree = [(edge[i], edge[j], f) for j in edge for i in range(1, j) for f in fs[j]]
            chord = [(c, edge[j], f) for c in chords for j in edge for f in fs[j]]
            got = [(sq.edge1, sq.edge2, sq.f) for sq in tree_pair_squares(g, t, k)]
            assert got == tree
            got = [(sq.edge1, sq.edge2, sq.f) for sq in chord_pair_squares(g, t, k)]
            assert got == chord


# --- the array-built squares against the tuple-by-tuple construction ---


def _reference_square_words(g, t, k):
    """Both families as (tag, edge1, edge2, sorted stay word), one tuple per square."""
    from itertools import combinations_with_replacement

    levels = []  # (tree edge, stay words) at tree-order positions 1, 2, ...
    for j in range(1, len(t.order)):
        v = t.order[j]
        words = combinations_with_replacement(t.order[: j + 1], k - 2)
        levels.append(((t.parent[v], v), [tuple(sorted(w)) for w in words]))
    tree_pairs = t.tree_pairs()
    out = [
        ("tree-square", low, high, w)
        for j, (high, words) in enumerate(levels)
        for low, _ in levels[:j]
        for w in words
    ]
    out.extend(
        ("chord-square", chord, edge, w)
        for chord in g.edges
        if chord not in tree_pairs
        for edge, words in levels
        for w in words
    )
    return out


def _reference_decomposition(g, k, root=0):
    """Walks, edge vectors and records of the decomposition, each corner looked up by word."""
    from redpow import ElementInfo, cycle_edge_vector
    from redpow.cyclespace import _canonical_cycle

    tree = bfs_spanning_tree(g, root)
    rp = build_reduced_power(g, k)
    v = g.num_vertices
    parked = (tree.root,) * (k - 1)
    f_root = Monomial.from_word(parked, v)
    cycles, infos = [], []
    for seq in greedy_mcb(g).cycles:
        cycles.append(_canonical_cycle([rp.state_of(parked + (c,)) for c in seq]))
        infos.append(ElementInfo(tag="embedded", f=f_root))
    for tag, (a, b), (c, d), w in _reference_square_words(g, tree, k):
        walk = [rp.state_of(w + pair) for pair in ((c, a), (c, b), (d, b), (d, a))]
        cycles.append(_canonical_cycle(walk))
        edges = (tuple(sorted((a, b))), tuple(sorted((c, d))))
        infos.append(ElementInfo(tag=tag, base_edges=edges, f=Monomial.from_word(w, v)))
    elements = tuple(cycle_edge_vector(rp, seq) for seq in cycles)
    return elements, tuple(cycles), tuple(infos)


def _assert_decomposition_matches_reference(g, k, root=0):
    basis = decomposition_basis(g, k, root=root)
    elements, cycles, infos = _reference_decomposition(g, k, root)
    assert basis.elements == elements
    assert basis.cycles == cycles
    assert basis.info == infos
    tree = bfs_spanning_tree(g, root)
    families = [
        ("tree-square", sq.edge1, sq.edge2, sq.f.word()) for sq in tree_pair_squares(g, tree, k)
    ] + [
        ("chord-square", sq.edge1, sq.edge2, sq.f.word())
        for sq in chord_pair_squares(g, tree, k)
    ]
    assert families == _reference_square_words(g, tree, k)


def test_array_squares_equal_the_tuple_reference(suite):
    for g in suite:
        for k in (2, 3, 4, 5):
            _assert_decomposition_matches_reference(g, k, root=g.num_vertices - 1)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=2, max_value=5),
    st.integers(0, 10**6),
    st.data(),
)
def test_array_squares_equal_the_tuple_reference_on_random_bases(v, extra, k, seed, data):
    g = random_connected_graph(v, extra, seed)
    _assert_decomposition_matches_reference(g, k, root=data.draw(st.integers(0, v - 1)))


def test_array_squares_of_p3_at_k40_equal_the_tuple_reference():
    g = path_graph(3)
    _assert_decomposition_matches_reference(g, 40)
    assert len(decomposition_basis(g, 40).elements) == tree_square_count(3, 40) == 780


# --- the integer rule for roots and tree entries ---


@pytest.mark.parametrize(
    "bad,message",
    [
        (2.0, "root index 2.0 is not an integer"),
        ("2", "root index '2' is not an integer"),
        (10**5000, "root index of more than 4000 digits out of range"),
    ],
    ids=["float", "string", "far"],
)
def test_decomposition_basis_refuses_a_root_by_the_integer_rule(bad, message):
    with pytest.raises(GraphError) as info:
        decomposition_basis(cycle_graph(5), 2, root=bad)
    assert str(info.value) == message


_PATH_PARENT = {1: 0, 2: 1, 3: 2, 4: 3}


@pytest.mark.parametrize(
    "call",
    [
        lambda g, t: check_spanning_tree(g, t),
        lambda g, t: fundamental_cycles(g, t),
        lambda g, t: tree_pair_squares(g, t, 2),
        lambda g, t: verify_square_space(g, t, 2),
    ],
    ids=["check_spanning_tree", "fundamental_cycles", "tree_pair_squares", "verify_square_space"],
)
@pytest.mark.parametrize(
    "tree,message",
    [
        (RootedTree(0, _PATH_PARENT, (0, 1, 2.0, 3, 4)), "tree vertex 2.0 is not an integer"),
        (RootedTree(0, {**_PATH_PARENT, 4: 3.0}, (0, 1, 2, 3, 4)), "tree vertex 3.0 is not an integer"),
        (RootedTree(0.0, _PATH_PARENT, (0, 1, 2, 3, 4)), "tree root 0.0 is not an integer"),
    ],
    ids=["order", "parent", "root"],
)
def test_a_tree_with_a_float_entry_is_refused(call, tree, message):
    with pytest.raises(GraphError) as info:
        call(cycle_graph(5), tree)
    assert str(info.value) == message


# --- token counts follow the integer rule ---

@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_decomposition_basis_refuses_k_by_the_integer_rule(kind):
    call = lambda k: decomposition_basis(cycle_graph(5), k)  # noqa: E731
    assert_count_refused(call, "k", "the decomposition basis needs k >= 2", 2, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@pytest.mark.parametrize("family", [tree_pair_squares, chord_pair_squares])
def test_square_families_refuse_k_by_the_integer_rule(family, kind):
    g = cycle_graph(5)
    tree = bfs_spanning_tree(g, 0)
    assert_count_refused(lambda k: family(g, tree, k), "k", "k must be >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_verify_square_space_refuses_k_by_the_integer_rule(kind):
    g = cycle_graph(5)
    call = lambda k: verify_square_space(g, bfs_spanning_tree(g, 0), k)  # noqa: E731
    assert_count_refused(call, "k", "k must be >= 1", 1, kind)


def test_square_token_counts_of_every_integer_type_keep_their_results():
    g = complete_graph(4)
    tree = bfs_spanning_tree(g, 0)
    basis = decomposition_basis(g, 3)
    report = verify_square_space(g, tree, 3)
    for three in (np.int64(3), np.int32(3)):
        assert decomposition_basis(g, three).cycles == basis.cycles
        assert tree_pair_squares(g, tree, three) == tree_pair_squares(g, tree, 3)
        assert chord_pair_squares(g, tree, three) == chord_pair_squares(g, tree, 3)
        other = verify_square_space(g, tree, three)
        assert other == report and type(other.k) is int
        assert json.dumps(other.as_dict()) == json.dumps(report.as_dict())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert tree_pair_squares(g, tree, True) == []
    assert [str(w.message) for w in caught] == ["no Cartesian squares exist for k < 2"]


@pytest.mark.parametrize("kind", COUNT_KINDS)
@pytest.mark.parametrize("field", ["v", "k"])
def test_tree_square_count_refuses_a_count_by_the_integer_rule(field, kind):
    call = lambda n: tree_square_count(*{"v": (n, 2), "k": (3, n)}[field])  # noqa: E731
    assert_count_refused(call, field, "tree_square_count needs v >= 1 and k >= 1", 1, kind)


@pytest.mark.parametrize("kind", COUNT_KINDS)
@pytest.mark.parametrize("field", ["beta", "v", "k"])
def test_chord_square_count_refuses_a_count_by_the_integer_rule(field, kind):
    call = lambda n: chord_square_count(  # noqa: E731
        *{"beta": (n, 3, 2), "v": (1, n, 2), "k": (1, 3, n)}[field]
    )
    least = 0 if field == "beta" else 1
    miss = "chord_square_count needs v >= 1, k >= 1, beta >= 0"
    assert_count_refused(call, field, miss, least, kind)


def test_square_count_formulas_of_every_integer_type_keep_their_results():
    for five, three, one in ((5, 3, 1), (np.int64(5), np.int64(3), np.int64(1))):
        assert tree_square_count(five, three) == 26 and chord_square_count(one, five, three) == 14
        assert tree_square_count(five, one) == 0 == chord_square_count(one, five, one)
        assert type(tree_square_count(five, three)) is int
        assert type(chord_square_count(one, five, three)) is int
    assert tree_square_count(True, 3) == 0 == chord_square_count(False, 5, 3)
    assert chord_square_count(True, 5, True) == 0 and chord_square_count(True, 5, 2) == 4


def test_a_structured_basis_reads_its_tags_without_its_info():
    for g in (cycle_graph(5), complete_graph(4), random_connected_graph(6, 4, seed=11)):
        for k in (2, 3):
            basis = decomposition_basis(g, k)
            tags = basis._tags
            assert "info" not in vars(basis)
            assert tags == tuple(record.tag for record in basis.info)
            assert set(tags) <= {"embedded", "tree-square", "chord-square"}
            greedy = greedy_mcb(build_reduced_power(g, k))
            assert greedy._tags == tuple(record.tag for record in greedy.info)


def _token_row_cycles(rp, tree):
    """:func:`~redpow.squares._structured_cycles` with every state ranked from its token row.

    Each square corner is the row of its two moving tokens and its stay
    word, each parked state the row of its vertex and k-1 root tokens;
    the embedded walks are put in canonical form one by one.
    """
    from redpow.cyclespace import _canonical_cycle
    from redpow.power import _word_ranks

    base, k, v = rp.base, rp.k, rp.base.num_vertices
    n_tree, rows, stays = _square_words(base, tree, k)
    parked = _word_ranks(np.column_stack([np.arange(v), np.full((v, k - 1), tree.root)]), v)
    embedded = [_canonical_cycle(parked[list(seq)].tolist()) for seq in greedy_mcb(base).cycles]
    rows[:, :2].sort(axis=1)
    rows[:, 2:4].sort(axis=1)
    a, b, c, d, w = rows.T
    moving = np.column_stack([c, a, c, b, d, b, d, a]).reshape(-1, 4, 2)
    staying = np.broadcast_to(stays[w][:, None], (len(rows), 4, stays.shape[1]))
    walks = _word_ranks(np.concatenate([moving, staying], axis=2), v)
    flip = walks[:, 3] < walks[:, 1]
    walks[flip] = walks[flip][:, [0, 3, 2, 1]]
    vertices = np.array([x for seq in embedded for x in seq] + walks.ravel().tolist(), np.int64)
    lengths = np.array([len(seq) for seq in embedded] + [4] * len(rows), np.int64)
    return (n_tree, rows, stays), vertices, lengths


def test_structured_cycles_name_the_states_the_token_rows_rank(suite):
    randoms = [random_connected_graph(v, extra, seed=v + extra) for v, extra in ((5, 3), (6, 1), (7, 4))]
    for g in list(suite) + randoms:
        for k in range(1, 6):
            rp = build_reduced_power(g, k)
            for root in (0, g.num_vertices - 1):
                tree = bfs_spanning_tree(g, root)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no squares at k = 1
                    got, want = _structured_cycles(rp, tree), _token_row_cycles(rp, tree)
                assert got[0][0] == want[0][0], (g, k, root)
                for x, y in zip((*got[0][1:], *got[1:]), (*want[0][1:], *want[1:])):
                    assert x.dtype == y.dtype == np.int64 and np.array_equal(x, y), (g, k, root)


def test_a_decomposition_basis_does_not_depend_on_the_powers_stay_order(suite):
    """The public constructor lists its stays in order of first use, the builder in rank order."""
    from redpow import ReducedPowerGraph

    for g in suite:
        for k in (2, 3, 4):
            built = build_reduced_power(g, k)
            public = ReducedPowerGraph(g, k, built.states, built.graph, built.annotations)
            tree = bfs_spanning_tree(g, g.num_vertices - 1)
            ours, theirs = _decomposition_on(public, tree), _decomposition_on(built, tree)
            assert (ours.cycles, ours.info, ours._tags) == (theirs.cycles, theirs.info, theirs._tags), (g, k)
            assert all(map(np.array_equal, ours._trace, theirs._trace))
