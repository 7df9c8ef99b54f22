"""Graph construction, traversal, and serialization."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    Graph,
    GraphError,
    RedpowError,
    RootedTree,
    betti,
    bfs_spanning_tree,
    dump_graph,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    graph_to_json,
    has_triangles,
    is_connected,
    load_graph,
)
from redpow.graph import check_spanning_tree

from conftest import (
    JSON_VALUES,
    LABELS,
    complete_graph,
    cycle_graph,
    graph_docs,
    path_graph,
    random_connected_graph,
)


def test_edges_are_canonical():
    g = Graph("abc", [("c", "a"), ("b", "a")])
    assert g.edges == ((0, 1), (0, 2))
    assert g.edge_labels() == [("a", "b"), ("a", "c")]
    assert g.edge_position(2, 0) == 1


def test_repr_counts_vertices_and_edges():
    assert repr(cycle_graph(4)) == "Graph(v=4, e=4)"


def test_adjacency_sorted():
    g = Graph("abcd", [("a", "d"), ("a", "b"), ("a", "c")])
    assert g.adjacency(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.degree(3) == 1


def test_value_equality_and_hash():
    g1 = Graph("ab", [("a", "b")])
    g2 = Graph("ab", [("b", "a")])
    g3 = Graph("ba", [("b", "a")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3


@pytest.mark.parametrize(
    "labels,edges,message",
    [
        ([], [], "at least one vertex"),
        (["a", "a"], [], "duplicate vertex"),
        (["a", "b"], [("a", "a")], "loop"),
        (["a", "b"], [("a", "b"), ("b", "a")], "duplicate edge"),
        (["a", "b"], [("a", "c")], "not a vertex"),
        (["a", ""], [], "non-empty"),
    ],
)
def test_constructor_rejects(labels, edges, message):
    with pytest.raises(GraphError, match=message):
        Graph(labels, edges)


def test_index_of_unknown_label():
    g = Graph("ab", [("a", "b")])
    with pytest.raises(GraphError, match="unknown vertex"):
        g.index_of("z")


def test_connectivity_and_betti():
    assert is_connected(cycle_graph(5))
    assert not is_connected(Graph("abc", [("a", "b")]))
    assert betti(path_graph(4)) == 0
    assert betti(cycle_graph(5)) == 1
    assert betti(complete_graph(4)) == 3
    with pytest.raises(GraphError, match="must be connected"):
        betti(Graph("abc", [("a", "b")]))


def test_has_triangles():
    assert not has_triangles(cycle_graph(5))
    assert not has_triangles(cycle_graph(4))
    assert has_triangles(cycle_graph(3))
    assert has_triangles(complete_graph(4))
    assert not has_triangles(path_graph(3))


def test_bfs_tree_pentagon():
    g = cycle_graph(5, "abcde")
    t = bfs_spanning_tree(g, 0)
    assert t.order == (0, 1, 4, 2, 3)
    assert t.depths() == (0, 1, 2, 2, 1)
    assert t.tree_pairs() == frozenset({(0, 1), (0, 4), (1, 2), (3, 4)})
    assert t.is_depth_ordered()


def test_bfs_tree_tie_break():
    g = complete_graph(4)
    t = bfs_spanning_tree(g, 2)
    assert t.order == (2, 0, 1, 3)
    assert t.parent == {0: 2, 1: 2, 3: 2}


def test_bfs_tree_rejects_bad_root_and_disconnected():
    g = cycle_graph(4)
    with pytest.raises(GraphError, match="out of range"):
        bfs_spanning_tree(g, 9)
    with pytest.raises(GraphError, match="must be connected"):
        bfs_spanning_tree(Graph("abc", [("a", "b")]), 0)


def test_check_spanning_tree_accepts_manual_path_tree():
    g = cycle_graph(5, "abcde")
    t = RootedTree(root=0, parent={1: 0, 2: 1, 3: 2, 4: 3}, order=(0, 1, 2, 3, 4))
    check_spanning_tree(g, t)
    assert t.depths() == (0, 1, 2, 3, 4)
    assert t.is_depth_ordered()


@pytest.mark.parametrize(
    "tree,message",
    [
        (RootedTree(0, {1: 0}, (0, 1)), "every vertex"),
        (RootedTree(0, {1: 0, 2: 1, 3: 2, 4: 3}, (1, 0, 2, 3, 4)), "start at the root"),
        (RootedTree(0, {1: 0, 2: 0, 3: 2, 4: 3}, (0, 1, 2, 3, 4)), "not a graph edge"),
        (RootedTree(0, {0: 1, 1: 0, 2: 1, 3: 2, 4: 3}, (0, 1, 2, 3, 4)), "root must not"),
    ],
)
def test_check_spanning_tree_rejects(tree, message):
    g = cycle_graph(5, "abcde")
    with pytest.raises(GraphError, match=message):
        check_spanning_tree(g, tree)


@given(st.integers(min_value=4, max_value=9), st.integers(min_value=0, max_value=6), st.integers(0, 10**6))
def test_bfs_tree_spans_and_is_depth_ordered(v, extra, seed):
    g = random_connected_graph(v, extra, seed)
    t = bfs_spanning_tree(g, seed % v)
    assert sorted(t.order) == list(range(v))
    assert len(t.parent) == v - 1
    check_spanning_tree(g, t)
    assert t.is_depth_ordered()
    depths = t.depths()
    for child, par in t.parent.items():
        assert depths[child] == depths[par] + 1


def test_json_round_trip_is_byte_stable(tmp_path):
    g = Graph("abcde", [("e", "a"), ("a", "b"), ("c", "b"), ("c", "d"), ("d", "e")])
    text = graph_to_json(g)
    again = graph_from_dict(json.loads(text))
    assert again == g
    assert graph_to_json(again) == text
    path = tmp_path / "g.json"
    dump_graph(g, path)
    assert load_graph(path) == g
    assert path.read_text() == text


def test_graph_from_dict_rejects():
    with pytest.raises(GraphError, match="JSON object"):
        graph_from_dict([1, 2])
    with pytest.raises(GraphError, match="missing key"):
        graph_from_dict({"vertices": ["a"]})
    with pytest.raises(GraphError, match="list of strings"):
        graph_from_dict({"vertices": [1], "edges": []})
    with pytest.raises(GraphError, match="pair of labels"):
        graph_from_dict({"vertices": ["a", "b"], "edges": [["a"]]})
    with pytest.raises(GraphError, match="must be connected"):
        graph_from_dict({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
    g = graph_from_dict(
        {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}, require_connected=False
    )
    assert g.num_vertices == 3


def test_load_graph_rejects_bad_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(GraphError, match="cannot read"):
        load_graph(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphError, match="not valid JSON"):
        load_graph(bad)


def test_dot_export():
    g = Graph("ab", [("a", "b")])
    dot = graph_to_dot(g)
    assert dot == 'graph G {\n  "a";\n  "b";\n  "a" -- "b";\n}\n'


def test_dot_export_escapes_quotes_and_backslashes():
    g = Graph(['a"b', "c\\d"], [('a"b', "c\\d")])
    dot = graph_to_dot(g)
    assert dot == 'graph G {\n  "a\\"b";\n  "c\\\\d";\n  "a\\"b" -- "c\\\\d";\n}\n'


def test_graph_to_dict_round_trip():
    g = cycle_graph(6)
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_from_dict_rejects_non_string_endpoints():
    for item in ([["a"], "b"], ["a", {"b": 1}], ["a", 1], [None, "b"]):
        with pytest.raises(GraphError, match="pair of labels") as info:
            graph_from_dict({"vertices": ["a", "b"], "edges": [item]})
        assert repr(item) in str(info.value)


@settings(max_examples=200, deadline=None)
@given(graph_docs(), st.booleans())
def test_graph_from_dict_raises_only_redpow_errors(doc, connected):
    try:
        g = graph_from_dict(doc, require_connected=connected)
    except RedpowError:
        return
    assert graph_from_dict(json.loads(graph_to_json(g)), require_connected=connected) == g


def test_tree_checks_name_out_of_range_entries():
    g = Graph(["a", "b"], [("a", "b")])
    for parent, entry in (({5: 0}, "5 -> 0"), ({1: 7}, "1 -> 7")):
        with pytest.raises(GraphError, match=f"parent entry {entry} is out of range"):
            check_spanning_tree(g, RootedTree(0, parent, (0, 1)))
    tree = RootedTree(0, {2: 0}, (0, 2))
    for method in (tree.depths, tree.is_depth_ordered):
        with pytest.raises(GraphError, match=r"every vertex exactly once, got \(0, 2\)"):
            method()


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), st.integers(0, 4), st.integers(0, 10**6), st.data())
def test_check_spanning_tree_raises_only_graph_errors(v, extra, seed, data):
    g = random_connected_graph(v, extra, seed)
    index = st.integers(-1, v + 1)
    start = bfs_spanning_tree(g, data.draw(st.integers(0, v - 1)))
    parent = dict(start.parent)
    for child, par in data.draw(st.lists(st.tuples(index, index), max_size=3)):
        parent[child] = par
    for child in data.draw(st.lists(index, max_size=2)):
        parent.pop(child, None)
    order = data.draw(
        st.one_of(
            st.just(start.order),
            st.permutations(range(v)),
            st.lists(index, max_size=v + 2),
        ).map(tuple)
    )
    tree = RootedTree(data.draw(st.one_of(st.just(start.root), index)), parent, order)
    for probe in (tree.depths, tree.is_depth_ordered):
        try:
            probe()
        except GraphError:
            pass
    try:
        check_spanning_tree(g, tree)
    except GraphError:
        return
    depths = tree.depths()
    for child, par in tree.parent.items():
        assert g.has_edge(child, par) and depths[child] == depths[par] + 1


@pytest.mark.parametrize(
    "labels,edges,message",
    [
        (["a", ["b"]], [], "vertex labels must be non-empty strings, got ['b']"),
        (["a", "b"], [("a", ["b"])], "edge endpoint ['b'] is not a vertex"),
        (["a", "b"], [("a", 1)], "edge endpoint 1 is not a vertex"),
        ("abc", [("a", "b"), ("c", "b"), ("b", "c"), ("b", "a")], "duplicate edge 'b'-'c'"),
        ("abc", iter([("a", "b"), ("c", "b"), ("b", "a")]), "duplicate edge 'b'-'a'"),
        ("abc", [("a", "b"), ("a", "z"), ("b", "b")], "edge endpoint 'z' is not a vertex"),
        ("abc", [("a", "b"), ("c", "c"), ("a", "z")], "loop at vertex 'c' is not allowed"),
        ("abc", [("a", "b"), ("b", "a"), ("c", "c")], "duplicate edge 'b'-'a'"),
        (["a", "b"], [("a", "b", "c")], "edge entry ('a', 'b', 'c') must be a pair of labels"),
        (["a", "b"], [("a",)], "edge entry ('a',) must be a pair of labels"),
        (["a", "b"], [5], "edge entry 5 must be a pair of labels"),
        (["a", "b"], [None], "edge entry None must be a pair of labels"),
        ("abc", [("a", "b"), None, ("c", "c")], "edge entry None must be a pair of labels"),
        (["a", "a", 5], [], "vertex labels must be non-empty strings, got 5"),
    ],
)
def test_constructor_names_the_first_fault(labels, edges, message):
    with pytest.raises(GraphError) as info:
        Graph(labels, edges)
    assert str(info.value) == message


@settings(max_examples=200, deadline=None)
@given(
    st.lists(LABELS | JSON_VALUES, max_size=4),
    st.lists(st.lists(LABELS | JSON_VALUES, max_size=3).map(tuple) | JSON_VALUES, max_size=4),
)
def test_constructor_raises_only_graph_errors(labels, edges):
    try:
        g = Graph(labels, edges)
    except GraphError:
        return
    assert g == Graph(g.labels, g.edge_labels())


@pytest.mark.parametrize("i,j,bad", [(0, 99, 99), (99, 0, 99), (-1, 1, -1)])
def test_edge_position_names_an_out_of_range_index(i, j, bad):
    g = Graph("ab", [("a", "b")])
    with pytest.raises(GraphError) as info:
        g.edge_position(i, j)
    assert str(info.value) == f"vertex index {bad} is out of range"
    with pytest.raises(GraphError, match="no edge between 'b' and 'b'"):
        g.edge_position(1, 1)


def test_builder_path_builds_the_label_path_graph():
    g = Graph._from_pairs("abcd", [(2, 3), (0, 2), (0, 1)])
    assert g == Graph("abcd", [("d", "c"), ("a", "c"), ("b", "a")])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert [g.adjacency(i) for i in range(4)] == [(1, 2), (0,), (0, 3), (2,)]
    assert g.edge_position(3, 2) == 2


@pytest.mark.parametrize(
    "labels,pairs,message",
    [
        ([], [], "graph needs at least one vertex"),
        (["a", 5, "a"], [], "vertex labels must be non-empty strings, got 5"),
        (["a", "b", "a"], [], "duplicate vertex label 'a'"),
        ("abc", [(0, 1), (1, 3)], "edge pair (1, 3) needs 0 <= i < j < 3"),
        ("abc", [(2, 1)], "edge pair (2, 1) needs 0 <= i < j < 3"),
        ("abc", [(1, 1)], "edge pair (1, 1) needs 0 <= i < j < 3"),
        ("abc", [(-1, 2)], "edge pair (-1, 2) needs 0 <= i < j < 3"),
        ("abc", [(1, 2), (0, 1), (1, 2)], "duplicate edge pair (1, 2)"),
    ],
)
def test_builder_path_checks_labels_ranges_and_repeats(labels, pairs, message):
    with pytest.raises(GraphError) as info:
        Graph._from_pairs(labels, pairs)
    assert str(info.value) == message


@pytest.mark.parametrize("entry", ["ab", "ba"])
def test_constructor_rejects_string_edge_entries(entry):
    with pytest.raises(GraphError) as info:
        Graph(["a", "b"], [entry])
    assert str(info.value) == f"edge entry {entry!r} must be a pair of labels"


# --- the array fill against the list path and a dict-based reference ---


def _reference_fill(n: int, pairs):
    """Edges, adjacency and edge index of index pairs, or the GraphError text.

    The list-based fill: sort the pairs as tuples, check each in that
    order, append both ends to per-vertex lists, then number the pairs
    through a dict, naming the first repeat.
    """
    pairs = sorted(map(tuple, pairs))
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        if not 0 <= i < j < n:
            return f"edge pair {(i, j)} needs 0 <= i < j < {n}"
        adj[i].append(j)
        adj[j].append(i)
    edge_index: dict[tuple[int, int], int] = {}
    for pair in pairs:
        if pair in edge_index:
            return f"duplicate edge pair {pair}"
        edge_index[pair] = len(edge_index)
    return tuple(pairs), tuple(map(tuple, adj)), edge_index


def _fill_outcome(labels, pairs):
    """What ``Graph._from_pairs`` gives: the three views, or the GraphError text."""
    try:
        g = Graph._from_pairs(labels, pairs)
    except GraphError as exc:
        return str(exc)
    return g.edges, tuple(g.adjacency(i) for i in range(g.num_vertices)), g.edge_index


def _as_array(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize(
    "labels,pairs",
    [
        ("abcd", [(2, 3), (0, 2), (0, 1)]),  # unsorted
        ("abcd", [(0, 1), (0, 2), (2, 3)]),  # sorted
        ("abcd", []),
        ([], []),
        (["a", 5, "a"], []),
        (["a", "b", "a"], []),
        ("abc", [(0, 1), (1, 3)]),  # out of range
        ("abc", [(2, 1)]),  # reversed
        ("abc", [(1, 1)]),  # loop
        ("abc", [(-1, 2)]),
        ("abc", [(1, 2), (0, 1), (1, 2)]),  # repeated
        ("abcd", [(2, 3), (3, 9), (0, 2), (5, 1), (0, 2)]),  # the least bad pair is named
    ],
)
def test_builder_path_on_an_array_matches_the_list_path(labels, pairs):
    assert _fill_outcome(labels, _as_array(pairs)) == _fill_outcome(labels, pairs)
    if len(labels) == len(set(labels)) and all(isinstance(x, str) for x in labels) and labels:
        assert _fill_outcome(labels, pairs) == _reference_fill(len(labels), pairs)


def test_builder_path_keeps_a_sorted_array_and_sorts_a_view_or_narrow_array():
    sorted_pairs = _as_array([(0, 1), (0, 2), (2, 3)])
    kept = Graph._from_pairs("abcd", sorted_pairs)
    assert np.shares_memory(kept._pairs, sorted_pairs)
    assert sorted_pairs.flags.writeable  # the caller's array stays writable
    before = hash(kept)
    with pytest.raises(ValueError):  # the graph's view refuses a write
        kept._pairs[0, 1] = 3
    assert hash(kept) == before and kept.edges[0] == (0, 1)
    rows = np.array([[2, 3, 7], [0, 2, 7], [0, 1, 7]], dtype=np.int32)
    g = Graph._from_pairs("abcd", rows[:, :2])
    assert g._pairs.dtype == np.int64 and g._pairs.flags.c_contiguous
    assert g == Graph("abcd", [("a", "b"), ("a", "c"), ("c", "d")])
    assert g.num_edges == 3


@st.composite
def _pair_lists(draw):
    """A vertex count and index pairs: mostly distinct valid pairs, sometimes bad or repeated ones."""
    n = draw(st.integers(min_value=1, max_value=7))
    valid = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.lists(st.sampled_from(valid), unique=True)) if valid else []
    if draw(st.booleans()):
        end = st.integers(min_value=-1, max_value=n)
        pairs += draw(st.lists(st.tuples(end, end), max_size=2))
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(_pair_lists())
def test_array_fill_equals_the_dict_reference(case):
    n, pairs = case
    labels = [f"v{i}" for i in range(n)]
    want = _reference_fill(n, pairs)
    assert _fill_outcome(labels, _as_array(pairs)) == want
    assert _fill_outcome(labels, list(pairs)) == want
    if isinstance(want, tuple):  # equal graphs hash equally, whichever path built them
        by_array = Graph._from_pairs(labels, _as_array(pairs))
        by_labels = Graph(labels, [(labels[i], labels[j]) for i, j in reversed(pairs)])
        assert by_array == by_labels and hash(by_array) == hash(by_labels)
        assert by_array.num_edges == len(want[0])


def test_graph_attribute_lookup_refuses_an_unknown_name():
    g = Graph(["a", "b"], [("a", "b")])
    assert hasattr(g, "nope") is False
    with pytest.raises(AttributeError, match="'Graph' object has no attribute 'nope'"):
        g.nope


# --- the integer rule: operator.index, and for a vertex index range(n) ---

_FAR = 10**5000  # str() refuses it: more than 4300 digits
_IDS = ["float", "string", "far"]


@pytest.mark.parametrize(
    "bad,message",
    [
        (1.0, "vertex index 1.0 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (_FAR, "vertex index of more than 4000 digits is out of range"),
    ],
    ids=_IDS,
)
def test_edge_position_refuses_a_vertex_index_by_the_integer_rule(bad, message):
    g = cycle_graph(5)
    for i, j in ((0, bad), (bad, 0)):
        with pytest.raises(GraphError) as info:
            g.edge_position(i, j)
        assert str(info.value) == message


@pytest.mark.parametrize("bad", [1.0, "1", _FAR], ids=_IDS)
def test_has_edge_is_false_for_what_the_integer_rule_refuses(bad):
    g = cycle_graph(5)
    assert not g.has_edge(0, bad) and not g.has_edge(bad, 0)
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


@pytest.mark.parametrize(
    "bad,message",
    [
        (1.0, "root index 1.0 is not an integer"),
        ("1", "root index '1' is not an integer"),
        (_FAR, "root index of more than 4000 digits out of range"),
    ],
    ids=_IDS,
)
def test_bfs_spanning_tree_refuses_a_root_by_the_integer_rule(bad, message):
    with pytest.raises(GraphError) as info:
        bfs_spanning_tree(cycle_graph(5), bad)
    assert str(info.value) == message


def test_integer_vertex_indices_of_every_integer_type_keep_their_results():
    g = cycle_graph(5)
    for zero, one in ((0, 1), (np.int64(0), np.int64(1)), (False, True)):
        assert g.edge_position(zero, one) == g.edge_position(one, zero) == 0
        assert g.has_edge(zero, one) and not g.has_edge(zero, zero)
        tree = bfs_spanning_tree(g, one)
        assert tree == bfs_spanning_tree(g, 1)
        check_spanning_tree(g, RootedTree(zero, {i: i - 1 for i in range(1, 5)}, (zero, 1, 2, 3, 4)))


@pytest.mark.parametrize("accessor", ["adjacency", "degree"])
@pytest.mark.parametrize(
    "bad,message",
    [
        (1.5, "vertex index 1.5 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (-1, "vertex index -1 is out of range"),
        (_FAR, "vertex index of more than 4000 digits is out of range"),
    ],
    ids=["float", "string", "negative", "far"],
)
def test_adjacency_and_degree_refuse_a_vertex_index_by_the_integer_rule(accessor, bad, message):
    with pytest.raises(GraphError) as info:
        getattr(cycle_graph(3), accessor)(bad)
    assert str(info.value) == message


def test_adjacency_and_degree_of_every_integer_type_keep_their_results():
    g = path_graph(3)
    for one in (1, np.int64(1), True):
        assert g.adjacency(one) == (0, 2) and g.degree(one) == 2
    assert g.adjacency(np.int64(2)) == (1,) and g.degree(False) == 1


# --- files json cannot parse into Python values ---

_DEEP = "[" * 3000 + "]" * 3000  # past the parser's recursion limit
_LONG_INT = "1" + "0" * 4999  # past Python's 4300-digit int string limit


@pytest.mark.parametrize(
    "text,reason",
    [
        ('{"vertices": ["a"], "edges": ' + _DEEP + "}", "maximum recursion depth exceeded"),
        ('{"vertices": ["a"], "edges": [], "n": ' + _LONG_INT + "}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["deep", "long-int"],
)
def test_load_graph_refuses_a_file_json_cannot_parse_naming_it(tmp_path, text, reason):
    path = tmp_path / "graph.json"
    path.write_text(text)
    with pytest.raises(GraphError) as info:
        load_graph(path)
    assert str(info.value).startswith(f"graph file {path} cannot be parsed: {reason}")


def test_graph_from_dict_echoes_a_long_edge_entry_in_a_bounded_form():
    # a 300-int entry once printed every int, in a message of 1436 characters
    doc = {"vertices": ["a", "b"], "edges": [list(range(300))]}
    with pytest.raises(GraphError) as info:
        graph_from_dict(doc)
    message = str(info.value)
    assert len(message) <= 300
    assert message == "edge entry [0, 1, 2, 3, 4, 5, ...] must be a pair of labels (strings)"


@pytest.mark.parametrize("size", [200, 201])
def test_an_echoed_value_prints_its_repr_up_to_200_characters(size):
    label = "x" * (size - 2)  # its repr adds two quotes
    with pytest.raises(GraphError) as info:
        Graph(["a", "b"], [("a", label)])
    shown = repr(label) if size == 200 else "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"
    assert str(info.value) == f"edge endpoint {shown} is not a vertex"


def test_graph_echoes_every_outside_value_without_raising_another_error():
    huge = 10**5000  # str refuses it: more than 4300 digits
    deep: list = []
    for _ in range(5000):  # deeper than repr can recurse
        deep = [deep]
    cases = [
        (lambda: Graph(["a", "b"], [[huge]]), "edge entry of more than 4000 digits must be"),
        (lambda: Graph(["a", "b"], [{"a": huge}]), "edge entry of more than 4000 digits must be"),
        (lambda: Graph(["a", "b"], [[[huge]]]), "edge entry [[...]] must be"),
        (lambda: Graph(["a", "b"], [deep]), "edge entry [[...]] must be"),
        (lambda: Graph([huge], []), "got of more than 4000 digits"),
        (lambda: graph_from_dict({"vertices": ["a", "b"], "edges": [deep]}), "edge entry [[...]] must"),
    ]
    for call, text in cases:
        with pytest.raises(RedpowError) as info:
            call()
        assert text in str(info.value) and len(str(info.value)) <= 300


# --- the tree rule: one breadth-first pass from the root ---


def test_a_cycle_of_parents_is_refused_naming_its_smallest_vertex():
    triangle = cycle_graph(3)
    tree = RootedTree(0, {1: 2, 2: 1}, (0, 1, 2))
    for probe in (tree.depths, tree.is_depth_ordered, lambda: check_spanning_tree(triangle, tree)):
        with pytest.raises(GraphError, match="^vertex 1 is not reached from the root by the parent map$"):
            probe()


def test_a_parentless_vertex_that_is_not_the_root_is_refused_by_name():
    # vertex 3 hangs below the parentless vertex 2, so 2 is the smallest the root misses
    tree = RootedTree(0, {1: 0, 3: 2}, (0, 1, 2, 3))
    for probe in (tree.depths, tree.is_depth_ordered):
        with pytest.raises(GraphError, match="^vertex 2 is not reached from the root by the parent map$"):
            probe()


def test_a_root_with_a_parent_is_refused_before_its_depths_are_read():
    triangle = cycle_graph(3)
    tree = RootedTree(0, {0: 2, 1: 0, 2: 1}, (0, 1, 2))
    assert tree.depths() == (0, 1, 2)  # the root's parent is not followed
    with pytest.raises(GraphError, match="^root must not have a parent$"):
        check_spanning_tree(triangle, tree)


def test_a_tree_check_checks_the_tree_s_indices_once(monkeypatch):
    checked = []
    check = RootedTree._check_indices

    def spied(tree, n):
        checked.append(n)
        return check(tree, n)

    monkeypatch.setattr(RootedTree, "_check_indices", spied)
    g = cycle_graph(5)
    assert check_spanning_tree(g, bfs_spanning_tree(g, 0)) == (0, 1, 2, 2, 1)
    assert checked == [5]


# --- the published edge array ---


def test_pairs_is_the_read_only_edge_array():
    g = Graph("abcd", [("c", "d"), ("a", "b"), ("a", "c")])
    assert g.pairs is g._pairs
    assert g.pairs.tolist() == [[0, 1], [0, 2], [2, 3]] and g.pairs.dtype == np.int64
    with pytest.raises(ValueError):
        g.pairs[0, 0] = 1
    with pytest.raises(AttributeError):
        g.pairs = np.zeros((0, 2), dtype=np.int64)


# --- the Python views, built on first read ---


def test_the_python_views_are_built_once_each_and_kept(monkeypatch):
    made = []
    for name in ("_make_edges", "_make__adj", "_make__edge_index"):
        make = getattr(Graph, name)
        monkeypatch.setattr(Graph, name, lambda self, make=make, name=name: made.append(name) or make(self))
    g = cycle_graph(5)
    for name in ("edges", "_adj", "_edge_index"):
        first = getattr(g, name)
        assert getattr(g, name) is first and getattr(Graph, name).__get__(g) is first  # the slot holds it
    assert g.adjacency(0) == (1, 4) and g.edge_position(4, 0) == 1
    assert made == ["_make_edges", "_make__adj", "_make__edge_index"]


def test_an_attribute_neither_a_slot_nor_built_on_read_is_missing():
    g = cycle_graph(5)
    for name in ("nothing", "_make_nothing"):
        with pytest.raises(AttributeError, match=rf"^'Graph' object has no attribute '{name}'$"):
            getattr(g, name)


# --- the writers' bytes and the label index ---

_ODD_LABELS = [
    'say "hi"', "back\\slash", "tab\there", "nul\x00", "bell\x07\x1f", "\x7f",
    "é", "日本", "😀", "\ud800", "a*b", "x^2", "a*b^3", "/", " ",
]


def _old_graph_to_dot(g: Graph) -> str:
    """The DOT renderer as it was written label by label, kept as the oracle of its bytes."""

    def dot_id(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph G {"]
    for lab in g.labels:
        lines.append(f"  {dot_id(lab)};")
    for i, j in g.edges:
        lines.append(f"  {dot_id(g.labels[i])} -- {dot_id(g.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _writer_graphs() -> list[Graph]:
    from redpow import build_reduced_power

    from conftest import generator_suite

    odd = _ODD_LABELS
    graphs = [*generator_suite(), Graph(["only"], []), Graph(odd[:1], [])]
    graphs.append(Graph(odd, [(odd[i - 1], odd[i]) for i in range(len(odd))]))  # a ring
    graphs.append(Graph(odd, []))
    graphs += [build_reduced_power(g, 2).graph for g in generator_suite()[:4]]  # labels with ^ and *
    return graphs


def test_graph_to_json_writes_the_bytes_of_json_dumps_with_indent_2():
    for g in _writer_graphs():
        assert graph_to_json(g) == json.dumps(graph_to_dict(g), indent=2) + "\n"
        assert graph_from_dict(json.loads(graph_to_json(g)), require_connected=False) == g


def test_graph_to_dot_writes_the_bytes_of_the_label_by_label_renderer():
    for g in _writer_graphs():
        assert graph_to_dot(g) == _old_graph_to_dot(g)


def _old_index_labels(labels):
    """The label index as it was built label by label, kept as the oracle of its faults."""
    labels = tuple(labels)
    if not labels:
        raise GraphError("graph needs at least one vertex")
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise GraphError(f"vertex labels must be non-empty strings, got {lab!r}")
    label_index = {}
    for i, lab in enumerate(labels):
        if label_index.setdefault(lab, i) != i:
            raise GraphError(f"duplicate vertex label {lab!r}")
    return labels, label_index


class _Tag(str):
    pass


@pytest.mark.parametrize(
    "labels, message",
    [
        (["a", "b", "a"], "duplicate vertex label 'a'"),
        (["a", "b", "b", "a"], "duplicate vertex label 'b'"),
        (["a", "", "b"], "vertex labels must be non-empty strings, got ''"),
        (["a", "a", ""], "vertex labels must be non-empty strings, got ''"),
        (["a", 5, "b"], "vertex labels must be non-empty strings, got 5"),
        (["a", "a", b"b"], "vertex labels must be non-empty strings, got b'b'"),
        (["a", ["b"], "c"], "vertex labels must be non-empty strings, got ['b']"),
        (["a", {}, 5], "vertex labels must be non-empty strings, got {}"),
        (["a", _Tag("")], "vertex labels must be non-empty strings, got ''"),
        (["a", _Tag("a")], "duplicate vertex label 'a'"),
        ([], "graph needs at least one vertex"),
    ],
)
def test_the_label_index_names_the_first_fault_as_the_label_by_label_loop_did(labels, message):
    from redpow.graph import _index_labels

    for index in (_index_labels, _old_index_labels):
        with pytest.raises(GraphError) as info:
            index(iter(labels))
        assert str(info.value) == message
        with pytest.raises(GraphError, match="^" + re.escape(message) + "$"):
            Graph(labels, [])


def test_the_label_index_accepts_str_subclasses_and_keeps_the_input_order():
    from redpow.graph import _index_labels

    for labels in (["b", _Tag("a"), "c"], [_Tag("x")], ["z", "y", "x", "w"], _ODD_LABELS):
        got = _index_labels(labels)
        assert got == _old_index_labels(labels) and list(got[1].items()) == list(zip(labels, range(len(labels))))
    g = Graph([_Tag("a"), "b"], [("a", "b")])
    assert g.labels == ("a", "b") and g.index_of("a") == 0 and g.edges == ((0, 1),)
