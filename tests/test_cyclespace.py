"""F2 cycle space: vectors, bases, projection, decomposition."""

from __future__ import annotations

import dataclasses
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    CycleBasis,
    CycleSpaceError,
    EdgeVector,
    ElementInfo,
    Gf2Span,
    Graph,
    GraphError,
    Monomial,
    RootedTree,
    betti,
    bfs_spanning_tree,
    boundary,
    build_reduced_power,
    cycle_decomposition,
    cycle_edge_vector,
    decomposition_basis,
    enumerate_simple_cycles,
    fundamental_cycles,
    greedy_mcb,
    host_graph,
    is_cycle,
    project_to_base,
    rank,
    total_length,
)
from redpow import cli, cyclespace, squares
from redpow.cyclespace import _canonical_cycle
from redpow.graph import _bfs

from conftest import (
    complete_graph,
    cycle_graph,
    generator_suite,
    path_graph,
    random_connected_graph,
)


def exhaustive_mcb_total(host) -> int:
    """Independent minimality oracle: greedy over every simple cycle."""
    from redpow.cyclespace import host_graph

    g = host_graph(host)
    cycles = []
    for seq in enumerate_simple_cycles(host):
        vec = cycle_edge_vector(host, seq)
        cycles.append((vec.size, tuple(vec.edge_indices()), vec.bits))
    cycles.sort()
    span = Gf2Span()
    total = 0
    dim = betti(g)
    count = 0
    for size, _, bits in cycles:
        if span.add(bits):
            total += size
            count += 1
            if count == dim:
                break
    assert count == dim
    return total


# --- edge vectors ---


def test_edge_vector_basics():
    g = cycle_graph(5, "abcde")
    x = EdgeVector.from_edges(g, [(0, 1), (1, 2)])
    assert x.size == 2
    assert x.edge_indices() == [0, 2]
    assert x.edge_pairs() == [(0, 1), (1, 2)]
    y = EdgeVector.from_edges(g, [(1, 2), (2, 3)])
    assert (x ^ y).edge_pairs() == [(0, 1), (2, 3)]
    assert (x ^ x).is_zero


def test_edge_vector_rejects():
    g = cycle_graph(4)
    h = cycle_graph(5)
    with pytest.raises(CycleSpaceError, match="outside the host"):
        EdgeVector(g, 1 << 10)
    with pytest.raises(CycleSpaceError, match="different hosts"):
        EdgeVector(g, 1) ^ EdgeVector(h, 1)


def test_boundary_and_is_cycle():
    g = cycle_graph(5, "abcde")
    edge = EdgeVector.from_edges(g, [(0, 1)])
    assert boundary(edge) == frozenset({0, 1})
    path = EdgeVector.from_edges(g, [(0, 1), (1, 2)])
    assert boundary(path) == frozenset({0, 2})
    whole = EdgeVector(g, (1 << 5) - 1)
    assert boundary(whole) == frozenset()
    assert is_cycle(whole)
    assert not is_cycle(path)


@settings(max_examples=60)
@given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1))
def test_boundary_is_linear(bits1, bits2):
    g = complete_graph(4)
    mask = (1 << g.num_edges) - 1
    x = EdgeVector(g, bits1 & mask)
    y = EdgeVector(g, bits2 & mask)
    assert boundary(x ^ y) == boundary(x) ^ boundary(y)


def test_rank_and_span():
    g = complete_graph(4)
    cycles = [cycle_edge_vector(g, seq) for seq in enumerate_simple_cycles(g)]
    assert len(cycles) == 7
    assert rank(cycles) == betti(g) == 3
    span = Gf2Span()
    for c in cycles[:3]:
        span.add(c.bits)
    assert span.contains(cycles[0].bits ^ cycles[1].bits)


def test_cycle_edge_vector_rejects():
    g = cycle_graph(5)
    with pytest.raises(CycleSpaceError, match="three vertices"):
        cycle_edge_vector(g, (0, 1))
    with pytest.raises(CycleSpaceError, match="repeats"):
        cycle_edge_vector(g, (0, 1, 0, 4))


# --- fundamental cycles ---


def test_fundamental_cycles_pentagon_path_tree():
    g = cycle_graph(5, "abcde")
    t = RootedTree(0, {1: 0, 2: 1, 3: 2, 4: 3}, (0, 1, 2, 3, 4))
    basis = fundamental_cycles(g, t)
    assert len(basis.elements) == 1
    assert basis.cycles == ((0, 1, 2, 3, 4),)
    assert basis.kind == "fundamental"
    assert not basis.certified_minimum


def test_fundamental_cycles_k4():
    g = complete_graph(4)
    t = bfs_spanning_tree(g, 0)
    basis = fundamental_cycles(g, t)
    assert len(basis.elements) == 3
    tree_pairs = t.tree_pairs()
    chords = [p for p in g.edges if p not in tree_pairs]
    for vec, chord in zip(basis.elements, chords):
        assert g.edge_position(*chord) in vec.edge_indices()
        assert is_cycle(vec)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=3, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(0, 10**6),
)
def test_fundamental_cycles_property(v, extra, seed):
    g = random_connected_graph(v, extra, seed)
    t = bfs_spanning_tree(g, seed % v)
    basis = fundamental_cycles(g, t)
    assert len(basis.elements) == betti(g)
    tree_bits = sum(1 << g.edge_position(*p) for p in t.tree_pairs())
    for vec in basis.elements:
        assert is_cycle(vec)
        assert (vec.bits & ~tree_bits).bit_count() == 1  # exactly one chord


# --- greedy minimum cycle basis ---


def test_greedy_mcb_simple_hosts():
    assert greedy_mcb(cycle_graph(5)).total_length == 5
    assert greedy_mcb(cycle_graph(6)).total_length == 6
    assert greedy_mcb(path_graph(4)).total_length == 0
    k4 = greedy_mcb(complete_graph(4))
    assert k4.total_length == 9
    assert all(len(seq) == 3 for seq in k4.cycles)
    assert k4.certified_minimum


def test_greedy_mcb_of_a_tree_returns_the_empty_basis_without_a_bfs(monkeypatch):
    # the general path returns the same basis for a tree, after one BFS per vertex
    def no_bfs(g, sources):
        raise AssertionError("a tree needs no shortest-path candidates")

    monkeypatch.setattr(cyclespace, "_source_trees", no_bfs)
    path = path_graph(2000)
    basis = greedy_mcb(path)
    assert (basis.host, basis.kind, basis.cycles, basis.elements) == (path, "greedy-mcb", (), ())
    assert basis.certified_minimum and basis.info == ()


def test_greedy_mcb_triangle_power():
    rp = build_reduced_power(cycle_graph(3), 2)
    basis = greedy_mcb(rp)
    assert betti(rp.graph) == 4
    assert basis.total_length == 12
    assert all(len(seq) == 3 for seq in basis.cycles)


def test_greedy_mcb_pentagon_power():
    rp = build_reduced_power(cycle_graph(5, "abcde"), 2)
    basis = greedy_mcb(rp)
    assert betti(rp.graph) == 11
    assert basis.total_length == 45
    lengths = sorted(len(seq) for seq in basis.cycles)
    assert lengths == [4] * 10 + [5]
    assert total_length(basis) == 45


def test_greedy_mcb_matches_exhaustive_oracle(suite):
    for g in suite:
        assert greedy_mcb(g).total_length == exhaustive_mcb_total(g)


def test_greedy_mcb_matches_exhaustive_on_powers():
    for g, k in [
        (cycle_graph(3), 2),
        (cycle_graph(4), 2),
        (path_graph(3), 3),
        (random_connected_graph(4, 2, seed=3), 2),
    ]:
        rp = build_reduced_power(g, k)
        if rp.num_states <= 12:
            assert greedy_mcb(rp).total_length == exhaustive_mcb_total(rp)


def test_greedy_mcb_no_shorter_exchange():
    """Swapping any element for a strictly shorter cycle breaks the basis."""
    for host in (complete_graph(4), build_reduced_power(cycle_graph(3), 2)):
        basis = greedy_mcb(host)
        all_cycles = [cycle_edge_vector(host, s) for s in enumerate_simple_cycles(host)]
        for drop in range(len(basis.elements)):
            kept = [x for i, x in enumerate(basis.elements) if i != drop]
            for cand in all_cycles:
                if cand.size >= basis.elements[drop].size:
                    continue
                assert rank(kept + [cand]) < len(basis.elements)


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 7), st.integers(1, 5), st.integers(0, 10**6))
def test_greedy_mcb_certified_against_exhaustive(v, extra, seed):
    g = random_connected_graph(v, extra, seed)
    assert greedy_mcb(g).total_length == exhaustive_mcb_total(g)


def test_greedy_mcb_invariant_under_relabeling():
    g = random_connected_graph(6, 4, seed=5)
    rng = random.Random(0)
    base_total = greedy_mcb(g).total_length
    for _ in range(5):
        perm = list(range(6))
        rng.shuffle(perm)
        mapping = {g.labels[i]: g.labels[perm[i]] for i in range(6)}
        order = list(g.labels)
        rng.shuffle(order)
        relabeled = Graph(
            order,
            [(mapping[g.labels[i]], mapping[g.labels[j]]) for i, j in g.edges],
        )
        assert relabeled != g or perm == sorted(perm)
        assert greedy_mcb(relabeled).total_length == base_total


# --- projection ---


def test_projection_of_single_edge():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 2)
    for e in range(rp.num_edges):
        i, j, _ = rp.annotation(e)
        out = project_to_base(EdgeVector(rp, 1 << e))
        assert out.edge_pairs() == [(i, j) if i < j else (j, i)]


def test_projection_is_linear():
    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 2)
    rng = random.Random(1)
    mask = (1 << rp.num_edges) - 1
    for _ in range(20):
        x = EdgeVector(rp, rng.getrandbits(rp.num_edges) & mask)
        y = EdgeVector(rp, rng.getrandbits(rp.num_edges) & mask)
        assert project_to_base(x ^ y) == project_to_base(x) ^ project_to_base(y)


def test_projection_needs_reduced_power():
    g = cycle_graph(4)
    with pytest.raises(CycleSpaceError, match="reduced power"):
        project_to_base(EdgeVector(g, 1))


def test_projection_embeds_inverse():
    from redpow import embed_cycle

    g = cycle_graph(5, "abcde")
    rp = build_reduced_power(g, 3)
    base_cycle = (0, 1, 2, 3, 4)
    for f in (Monomial((2, 0, 0, 0, 0)), Monomial((0, 1, 0, 1, 0))):
        emb = embed_cycle(rp, base_cycle, f)
        assert project_to_base(emb) == cycle_edge_vector(g, base_cycle)


# --- cycle decomposition ---


def test_cycle_decomposition_single():
    g = cycle_graph(5, "abcde")
    whole = EdgeVector(g, (1 << 5) - 1)
    assert cycle_decomposition(whole) == [(0, 1, 2, 3, 4)]


def test_cycle_decomposition_rejects_non_cycle():
    g = cycle_graph(5)
    with pytest.raises(CycleSpaceError, match="even-degree"):
        cycle_decomposition(EdgeVector(g, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 7), st.integers(2, 8), st.integers(0, 10**6), st.data())
def test_cycle_decomposition_property(v, extra, seed, data):
    g = random_connected_graph(v, extra, seed)
    simple = enumerate_simple_cycles(g)
    if not simple:
        return
    picks = data.draw(
        st.lists(st.sampled_from(simple), min_size=1, max_size=4)
    )
    acc = EdgeVector(g, 0)
    for seq in picks:
        acc = acc ^ cycle_edge_vector(g, seq)
    pieces = cycle_decomposition(acc)
    back = EdgeVector(g, 0)
    for seq in pieces:
        vec = cycle_edge_vector(g, seq)
        assert vec.size == len(seq)
        back = back ^ vec
    assert back == acc


# --- exhaustive enumeration ---


def test_enumerate_simple_cycles_counts():
    assert len(enumerate_simple_cycles(cycle_graph(5))) == 1
    assert len(enumerate_simple_cycles(path_graph(5))) == 0
    assert len(enumerate_simple_cycles(complete_graph(4))) == 7


def test_enumerate_canonical_orientation():
    for seq in enumerate_simple_cycles(complete_graph(4)):
        assert seq == _canonical_cycle(seq)
        assert seq[0] == min(seq)
        assert seq[1] < seq[-1]


# --- basis validation ---


def _with_cycles(basis: CycleBasis, cycles, **fields) -> CycleBasis:
    return dataclasses.replace(basis, cycles=tuple(cycles), **fields)


def test_basis_rejects_a_wrong_element_count():
    basis = greedy_mcb(complete_graph(4))
    for n in (2, 4):
        cycles = (basis.cycles * 2)[:n]
        elements, info = (basis.elements * 2)[:n], (basis.info * 2)[:n]
        with pytest.raises(CycleSpaceError, match=f"basis has {n} elements, .* dimension 3"):
            _with_cycles(basis, cycles, elements=elements, info=info)


def test_basis_rejects_walks_or_records_that_do_not_match_the_elements():
    basis = greedy_mcb(complete_graph(4))
    with pytest.raises(CycleSpaceError, match="every element needs a vertex sequence"):
        _with_cycles(basis, basis.cycles[1:])
    with pytest.raises(CycleSpaceError, match="every element needs a vertex sequence"):
        _with_cycles(basis, basis.cycles + basis.cycles[:1])
    with pytest.raises(CycleSpaceError, match="info records do not match element count"):
        _with_cycles(basis, basis.cycles, info=basis.info[1:])
    with pytest.raises(CycleSpaceError, match="info records do not match element count"):
        _with_cycles(basis, basis.cycles, info=basis.info + basis.info[:1])


def test_basis_rejects_an_element_on_another_host():
    basis = greedy_mcb(complete_graph(4))
    g = host_graph(basis.host)
    other = Graph(["w", "x", "y", "z"], [tuple("wxyz"[i] for i in e) for e in g.edges])
    assert other.edges == g.edges and other != g
    moved = EdgeVector(other, basis.elements[1].bits)
    elements = basis.elements[:1] + (moved,) + basis.elements[2:]
    with pytest.raises(CycleSpaceError, match="basis element lives on a different host"):
        _with_cycles(basis, basis.cycles, elements=elements)


def test_basis_rejects_a_dependent_set_of_the_right_size():
    g = complete_graph(4)
    # the two fundamental triangles through edge 01 and their sum, the 4-cycle 0-2-1-3
    cycles = ((0, 1, 2), (0, 1, 3), (0, 2, 1, 3))
    elements = tuple(cycle_edge_vector(g, seq) for seq in cycles)
    assert elements[0] ^ elements[1] == elements[2] and len(elements) == betti(g)
    with pytest.raises(CycleSpaceError, match="basis elements are linearly dependent"):
        _with_cycles(greedy_mcb(g), cycles, elements=elements)


def test_basis_rejects_a_walk_tracing_another_cycle():
    basis = greedy_mcb(complete_graph(4))
    swapped = (basis.cycles[1], basis.cycles[0]) + basis.cycles[2:]
    with pytest.raises(CycleSpaceError, match="does not trace its element"):
        _with_cycles(basis, swapped)
    # a longer cycle in place of a triangle
    square = next(seq for seq in enumerate_simple_cycles(complete_graph(4)) if len(seq) == 4)
    with pytest.raises(CycleSpaceError, match="does not trace its element"):
        _with_cycles(basis, (square,) + basis.cycles[1:])


def test_basis_rejects_walks_through_non_edges_and_bad_walks():
    basis = greedy_mcb(cycle_graph(5))
    with pytest.raises(GraphError):
        _with_cycles(basis, [(0, 2, 1, 3, 4)])
    with pytest.raises(GraphError):
        cycle_edge_vector(cycle_graph(5), (0, 2, 4))
    with pytest.raises(CycleSpaceError, match="three vertices"):
        _with_cycles(basis, [(0, 1)])
    with pytest.raises(CycleSpaceError, match="repeats"):
        _with_cycles(basis, [(0, 1, 2, 1, 0)])


@pytest.mark.parametrize("far", [2**63, 10**20, -(2**63) - 1])
def test_walks_with_a_vertex_index_past_int64_raise_graph_errors(far):
    g = cycle_graph(5)
    with pytest.raises(GraphError, match="out of range"):
        cycle_edge_vector(g, (0, 1, far))
    with pytest.raises(GraphError, match="out of range"):
        _with_cycles(greedy_mcb(g), [(0, 1, 2, 3, far)])


def test_builders_pass_the_edge_vectors_of_their_walks(suite):
    for g in suite:
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            bases = [fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0)), greedy_mcb(rp)]
            if k >= 2:
                bases.append(decomposition_basis(g, k))
            for basis in bases:
                for x, seq in zip(basis.elements, basis.cycles):
                    assert x == cycle_edge_vector(basis.host, seq)
                    assert x.size == len(seq)


def test_greedy_mcb_orders_by_length_then_edge_indices(suite):
    hosts = list(suite) + [build_reduced_power(g, k) for g in suite[:7] for k in (2, 3)]
    hosts.append(build_reduced_power(cycle_graph(8), 3))
    for host in hosts:
        keys = [(x.size, x.edge_indices()) for x in greedy_mcb(host).elements]
        assert all(a < b for a, b in zip(keys, keys[1:])), host


# --- reference copies of the earlier all-pairs builders ---


def _reference_greedy_mcb(host):
    """Shortest-path candidates from an all-pairs BFS parent table.

    Rebuilds both tree paths for every (source, edge) pair, keeps the
    pairs whose paths share only the source, and traces the first walk
    of every distinct edge set; returns the greedy picks and their walks.
    """
    g = host_graph(host)
    parents = [_bfs(g, s)[0] for s in range(g.num_vertices)]

    def path(src, dst):
        out = [dst]
        while out[-1] != src:
            out.append(parents[src][out[-1]])
        return out[::-1]

    candidates = {}
    for x in range(g.num_vertices):
        for u, w in g.edges:
            pu, pw = path(x, u), path(x, w)
            seq = pu + pw[:0:-1]
            if set(pu) & set(pw) == {x} and len(seq) >= 3:
                candidates.setdefault(cycle_edge_vector(host, seq).bits, seq)
    ordered = sorted(candidates, key=lambda b: (b.bit_count(), EdgeVector(host, b).edge_indices()))
    span = Gf2Span()
    kept = [bits for bits in ordered if span.add(bits)]
    return (
        tuple(EdgeVector(host, bits) for bits in kept),
        tuple(_canonical_cycle(candidates[bits]) for bits in kept),
    )


def _reference_fundamental_cycles(host, tree):
    """Fundamental cycles from both full paths to the root, shared tail trimmed."""
    g = host_graph(host)

    def path_to_root(v):
        out = [v]
        while out[-1] != tree.root:
            out.append(tree.parent[out[-1]])
        return out

    tree_pairs = tree.tree_pairs()
    cycles = []
    for i, j in g.edges:
        if (i, j) in tree_pairs:
            continue
        left, right = path_to_root(i), path_to_root(j)
        while len(left) > 1 and len(right) > 1 and left[-2] == right[-2]:
            left.pop()
            right.pop()
        cycles.append(_canonical_cycle(left + right[-2::-1]))
    return tuple(cycle_edge_vector(host, seq) for seq in cycles), tuple(cycles)


def _assert_greedy_matches_reference(host):
    basis = greedy_mcb(host)
    assert (basis.elements, basis.cycles) == _reference_greedy_mcb(host), host
    assert basis.kind == "greedy-mcb" and basis.certified_minimum
    assert basis.info == tuple(ElementInfo(tag="greedy") for _ in basis.elements)


def test_greedy_mcb_equals_the_all_pairs_reference(suite):
    hosts = list(suite)
    for g in suite:
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            hosts += [rp, rp.graph]
    hosts.append(build_reduced_power(cycle_graph(8), 3))
    for host in hosts:
        _assert_greedy_matches_reference(host)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7), st.integers(0, 6), st.integers(1, 3), st.integers(0, 10**6))
def test_greedy_mcb_equals_the_all_pairs_reference_on_random_powers(v, extra, k, seed):
    _assert_greedy_matches_reference(build_reduced_power(random_connected_graph(v, extra, seed), k))


def test_greedy_mcb_equals_the_reference_on_c8_k4_and_partway_through_a_class():
    k4 = build_reduced_power(complete_graph(4), 3)
    # K4 at k = 3 completes its basis partway through a length class:
    # that class has candidates after the last element kept
    last = greedy_mcb(k4).elements[-1]
    parts = cyclespace._candidate_rows(k4.graph, range(k4.num_states))
    rows = [row for size, part in parts if size == last.size for row in part.tolist()]
    assert max(rows) > last.edge_indices()
    for host in (build_reduced_power(cycle_graph(8), 4), k4):
        _assert_greedy_matches_reference(host)


def test_greedy_mcb_equals_the_reference_in_blocks_of_one_source(suite, monkeypatch):
    # each source is its own block and each candidate its own part,
    # so every length class is merged across parts
    monkeypatch.setattr(cyclespace, "_BLOCK_ENTRIES", 3)
    blocks = []
    candidate_rows = cyclespace._candidate_rows

    def counted(g, sources):
        blocks.append(len(sources))
        return candidate_rows(g, sources)

    monkeypatch.setattr(cyclespace, "_candidate_rows", counted)
    hosts = [g for g in suite if betti(g)]
    hosts += [build_reduced_power(g, k) for g in hosts for k in (2, 3)]
    hosts.append(build_reduced_power(cycle_graph(8), 3))
    for host in hosts:
        blocks.clear()
        _assert_greedy_matches_reference(host)
        assert blocks == [1] * host_graph(host).num_vertices


def _grid(m: int) -> Graph:
    labels = [f"g{i}.{j}" for i in range(m) for j in range(m)]
    right = [(i * m + j, i * m + j + 1) for i in range(m) for j in range(m - 1)]
    down = [(i * m + j, (i + 1) * m + j) for i in range(m - 1) for j in range(m)]
    return Graph(labels, [(labels[a], labels[b]) for a, b in right + down])


def test_greedy_mcb_of_a_grid_is_its_unit_squares():
    m = 30
    basis = greedy_mcb(build_reduced_power(_grid(m), 1))
    corners = [i * m + j for i in range(m - 1) for j in range(m - 1)]
    squares = {(a, a + 1, a + m + 1, a + m) for a in corners}
    assert len(basis.cycles) == (m - 1) ** 2 and set(basis.cycles) == squares


def test_greedy_mcb_leaves_the_edge_index_unbuilt():
    # candidates and walks find their edges in the sorted edge array
    for host in (build_reduced_power(cycle_graph(8), 3), random_connected_graph(6, 7, seed=13)):
        assert greedy_mcb(host).total_length > 0
        with pytest.raises(AttributeError):
            Graph._edge_index.__get__(host_graph(host))


def test_fundamental_cycles_equal_the_path_to_root_reference(suite):
    cases = []
    for g in suite:
        for host in (g, build_reduced_power(g, 2)):
            n = host_graph(host).num_vertices
            cases += [(host, bfs_spanning_tree(host_graph(host), r)) for r in range(n)]
    for n in (3, 4, 5, 6):
        cases.append((cycle_graph(n), RootedTree(0, {i: i - 1 for i in range(1, n)}, tuple(range(n)))))
    cases.append((complete_graph(4), RootedTree(0, {1: 0, 2: 1, 3: 2}, (0, 1, 2, 3))))
    for host, tree in cases:
        basis = fundamental_cycles(host, tree)
        assert (basis.elements, basis.cycles) == _reference_fundamental_cycles(host, tree)
        assert basis.info == tuple(ElementInfo(tag="fundamental") for _ in basis.elements)


def test_fundamental_cycles_on_a_tree_order_that_lists_children_first():
    host = cycle_graph(4)
    tree = RootedTree(0, {1: 0, 2: 1, 3: 2}, (0, 3, 2, 1))
    assert not tree.is_depth_ordered()
    basis = fundamental_cycles(host, tree)
    assert (basis.elements, basis.cycles) == _reference_fundamental_cycles(host, tree)
    assert basis.cycles == ((0, 1, 2, 3),)


# --- vectorised edge lookup ---


def test_edge_ids_equal_the_edge_index_and_mark_non_edges(suite):
    import numpy as np

    from redpow.cyclespace import _edge_ids

    rng = random.Random(5)
    hosts = list(suite) + [build_reduced_power(g, 3).graph for g in suite[:6]]
    for g in hosts:
        n = g.num_vertices
        pairs = [(rng.randrange(-2, n + 2), rng.randrange(-2, n + 2)) for _ in range(200)]
        pairs += [(j, i) for i, j in g.edges] + list(g.edges)
        x, y = (np.array(side, dtype=np.int64) for side in zip(*pairs))
        expected = [
            g.edge_index.get((i, j) if i < j else (j, i), -1) if 0 <= min(i, j) else -1
            for i, j in pairs
        ]
        assert _edge_ids(g, x, y).tolist() == expected
    empty = Graph(["a", "b"], [])
    assert _edge_ids(empty, np.array([0, 1]), np.array([1, 0])).tolist() == [-1, -1]


def test_basis_check_raises_the_first_faulty_elements_error_in_order():
    basis = greedy_mcb(complete_graph(4))
    first = basis.cycles[0]
    # element 1 walks through a non-edge, element 2 is too short: element 1 is named
    with pytest.raises(GraphError, match="vertex index 9 is out of range"):
        _with_cycles(basis, (first, (0, 1, 9)) + ((0, 1),) + basis.cycles[3:])
    with pytest.raises(CycleSpaceError, match="three vertices"):
        _with_cycles(basis, (first, (0, 1)) + ((0, 1, 9),) + basis.cycles[3:])


# --- the one walk tracer ---


def test_one_edge_search_traces_a_decomposition_basis(suite, monkeypatch):
    """The power's edges are searched once per basis, built from the base or as mcb builds it."""
    searched = []
    search = cyclespace._edge_ids

    def counted(g, x, y):
        searched.append(g)
        return search(g, x, y)

    monkeypatch.setattr(cyclespace, "_edge_ids", counted)
    monkeypatch.setattr(squares, "_edge_ids", counted)
    for g in suite:
        for k in (2, 3):
            power = build_reduced_power(g, k)
            for build in (lambda: decomposition_basis(g, k), lambda: cli._basis_for(power, 0)):
                searched.clear()
                assert build().kind == "decomposition"
                assert sum(h == power.graph for h in searched) == 1, (g, k)


def test_a_basis_without_elements_derives_the_ones_its_builder_gives(suite):
    import numpy as np

    for g in suite:
        for k in (1, 2, 3):
            rp = build_reduced_power(g, k)
            bases = [fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0)), greedy_mcb(rp)]
            if k >= 2:
                bases.append(decomposition_basis(g, k))
            for basis in bases:
                derived = dataclasses.replace(basis, elements=None)
                assert derived == basis
                assert all(map(np.array_equal, derived._trace, basis._trace))


def test_a_basis_without_elements_keeps_the_walk_refusals():
    basis = greedy_mcb(cycle_graph(5))
    with pytest.raises(GraphError):
        _with_cycles(basis, [(0, 2, 1, 3, 4)], elements=None)
    with pytest.raises(CycleSpaceError, match="three vertices"):
        _with_cycles(basis, [(0, 1)], elements=None)
    with pytest.raises(CycleSpaceError, match="repeats"):
        _with_cycles(basis, [(0, 1, 2, 1, 0)], elements=None)
    with pytest.raises(CycleSpaceError, match="basis has 2 elements, .* dimension 1"):
        _with_cycles(basis, basis.cycles * 2, elements=None, info=basis.info * 2)


def test_edge_vectors_refuse_what_they_cannot_hold():
    g = cycle_graph(4)
    with pytest.raises(CycleSpaceError, match="^object cannot host edge vectors$"):
        host_graph(object())
    for bits in (-1, 1.5):
        with pytest.raises(CycleSpaceError, match="non-negative integer"):
            EdgeVector(g, bits)
    with pytest.raises(TypeError):
        EdgeVector(g, 1) ^ 3
    with pytest.raises(CycleSpaceError, match="different hosts"):
        rank([EdgeVector(g, 1), EdgeVector(cycle_graph(5), 1)])


# --- independence by peeling ---


def _ladder(m: int) -> Graph:
    """Two paths of m + 1 vertices, top 0..m and bottom m+1..2m+1, joined by m + 1 rungs."""
    labels = [f"t{i}" for i in range(m + 1)] + [f"b{i}" for i in range(m + 1)]
    pairs = [(i, i + 1) for i in range(m)] + [(m + 1 + i, m + 2 + i) for i in range(m)]
    pairs += [(i, m + 1 + i) for i in range(m + 1)]
    return Graph(labels, [(labels[a], labels[b]) for a, b in pairs])


def _walks_of_three_bases(g: Graph, k: int) -> tuple[object, list[tuple[int, ...]], list[int]]:
    """The power of ``g``, the walks of its greedy, fundamental and (k >= 2) decomposition bases, and their sizes."""
    rp = build_reduced_power(g, k)
    bases = [greedy_mcb(rp), fundamental_cycles(rp, bfs_spanning_tree(rp.graph, 0))]
    if k >= 2:
        bases.append(decomposition_basis(g, k))
        assert host_graph(bases[-1].host) == rp.graph
    return rp, [seq for basis in bases for seq in basis.cycles], [len(b.cycles) for b in bases]


def _assert_peeled_rank(starts, edge, bitsets: list[int], picked: np.ndarray) -> int:
    """The rank of the walks ``picked`` by peeling, as Gf2Span finds it, also with one peel round."""
    span = Gf2Span()
    for w in picked.tolist():
        span.add(bitsets[w])
    assert cyclespace._walk_rank(starts, edge, picked) == span.rank
    # with one round, most of a set goes to Gf2Span
    with mock.patch.object(cyclespace, "_PEEL_ROUNDS", 1):
        assert cyclespace._walk_rank(starts, edge, picked) == span.rank
    return span.rank


def test_peeled_rank_equals_the_gf2span_rank_on_every_suite_base(suite):
    """Each basis alone, the union of all three (dependent), and the union short of its last walk."""
    for g in suite:
        for k in (1, 2, 3):
            rp, walks, sizes = _walks_of_three_bases(g, k)
            starts, edge, _ = cyclespace._trace_walks(rp.graph, walks)
            bitsets = cyclespace._walk_bitsets(starts, edge)
            assert bitsets == [cycle_edge_vector(rp, seq).bits for seq in walks]
            dim = betti(rp.graph)
            ends = np.cumsum(sizes)
            for lo, hi in zip(ends - sizes, ends):
                assert _assert_peeled_rank(starts, edge, bitsets, np.arange(lo, hi)) == dim
            assert _assert_peeled_rank(starts, edge, bitsets, np.arange(len(walks))) == dim
            _assert_peeled_rank(starts, edge, bitsets, np.arange(len(walks) - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(generator_suite())
    | st.builds(random_connected_graph, st.integers(4, 7), st.integers(0, 5), st.integers(0, 10**6)),
    st.integers(1, 3),
    st.data(),
)
def test_peeled_rank_equals_the_gf2span_rank(g, k, data):
    """Peel plus leftover rank is the Gf2Span rank on random subsets of three bases' walks."""
    rp, walks, _ = _walks_of_three_bases(g, k)
    starts, edge, _ = cyclespace._trace_walks(rp.graph, walks)
    bitsets = cyclespace._walk_bitsets(starts, edge)
    keep = data.draw(st.lists(st.booleans(), min_size=len(walks), max_size=len(walks)))
    _assert_peeled_rank(starts, edge, bitsets, np.arange(len(walks))[np.array(keep, dtype=bool)])


def test_the_peel_stalls_on_two_triangles_and_their_sum():
    g = complete_graph(4)
    # every edge of the triangles 012 and 013 and of the 4-cycle 0-2-1-3 lies in two of them
    cycles = ((0, 1, 2), (0, 1, 3), (0, 2, 1, 3))
    starts, edge, _ = cyclespace._trace_walks(g, cycles)
    assert cyclespace._peel(starts, edge, np.arange(3)).tolist() == [0, 1, 2]
    assert cyclespace._walk_rank(starts, edge, np.arange(3)) == 2
    info = (ElementInfo(tag="test"),) * 3
    with pytest.raises(CycleSpaceError, match="^basis elements are linearly dependent$"):
        CycleBasis(g, None, "test", cycles, False, info)


def _record_bitset_requests(monkeypatch) -> list:
    """The walks of every later ``_walk_bitsets`` call, as a list, or None for every walk."""
    asked = []
    bitsets = cyclespace._walk_bitsets

    def recorded(starts, edge, walks=None):
        asked.append(None if walks is None else walks.tolist())
        return bitsets(starts, edge, walks)

    monkeypatch.setattr(cyclespace, "_walk_bitsets", recorded)
    return asked


def test_a_ladder_of_overlapping_rectangles_is_accepted_within_the_round_cap(monkeypatch):
    """One unit square and 1999 two-square rectangles: a round peels only the two last rectangles."""
    m = 2000
    g = _ladder(m)
    cycles = [(0, 1, m + 2, m + 1)]
    cycles += [(i, i + 1, i + 2, m + 3 + i, m + 2 + i, m + 1 + i) for i in range(m - 1)]
    asked = _record_bitset_requests(monkeypatch)
    basis = CycleBasis(g, None, "ladder", tuple(cycles), False, (ElementInfo(tag="test"),) * m)
    assert len(basis.elements) == betti(g) == m
    # the elements' bitsets, then the Gf2Span pass over the walks the capped peel left
    assert asked == [None, list(range(m - 2 * cyclespace._PEEL_ROUNDS))]


def test_verify_square_space_builds_bitsets_only_for_what_the_peel_leaves(suite, monkeypatch):
    asked = _record_bitset_requests(monkeypatch)
    for g in suite:
        cyclespace._base_mcb(g)  # a basis of the base, whose elements are bitsets
        for k in (2, 3):
            asked.clear()
            assert squares.verify_square_space(g, bfs_spanning_tree(g, 0), k).passed
            assert asked == [], (g, k)


# --- the order of walk and element errors ---

_WALK_FAULTS = {
    "short": (0, 1),
    "repeat": (0, 1, 2, 1),
    "missing": (0, 2, 1, 3, 4),  # 0-2 is no edge of the 5-cycle
}


@pytest.mark.parametrize("first, second", list(itertools.permutations(_WALK_FAULTS, 2)))
def test_trace_walks_raises_the_first_faulty_walks_own_error(first, second):
    g = cycle_graph(5)
    with pytest.raises((CycleSpaceError, GraphError)) as own:
        cycle_edge_vector(g, _WALK_FAULTS[first])
    good = (0, 1, 2, 3, 4)
    with pytest.raises(type(own.value)) as raised:
        cyclespace._trace_walks(g, [good, _WALK_FAULTS[first], good, _WALK_FAULTS[second]])
    assert str(raised.value) == str(own.value)


@pytest.mark.parametrize("first", ["short", "missing"])
def test_a_faulty_walk_before_one_past_int64_raises_its_own_error(first):
    """A vertex past int64 does not hide the error of an earlier walk."""
    g = cycle_graph(5)
    walks = {"short": (0, 1), "missing": (0, 2, 4)}  # 0-2 is no edge of the 5-cycle
    with pytest.raises((CycleSpaceError, GraphError)) as own:
        cycle_edge_vector(g, walks[first])
    with pytest.raises(type(own.value)) as raised:
        cyclespace._trace_walks(g, [walks[first], (0, 1, 2**63)])
    assert str(raised.value) == str(own.value)
    assert str(raised.value) == {"short": "a simple cycle needs at least three vertices",
                                 "missing": "no edge between 'v0' and 'v2'"}[first]


@pytest.mark.parametrize("sign", [1, -1])
def test_a_vertex_index_past_the_int_string_limit_is_out_of_range(sign):
    far = sign * 10**5000  # str() refuses it: more than 4300 digits
    g = cycle_graph(5)
    info = (ElementInfo(tag="test"),)
    for call in (
        lambda: g.edge_position(0, far),
        lambda: cycle_edge_vector(g, (0, 1, far)),
        lambda: CycleBasis(g, None, "test", ((0, 1, 2, 3, far),), False, info),
    ):
        with pytest.raises(GraphError, match="^vertex index of more than 4000 digits is out of range$"):
            call()


def _element_by_element_error(g: Graph, elements, cycles) -> str | None:
    """The message of the first fault, checked one element at a time in order."""
    span = Gf2Span()
    for x, seq in zip(elements, cycles):
        if host_graph(x.host) != g:
            return "basis element lives on a different host"
        if x.bits != cycle_edge_vector(g, seq).bits:
            return "vertex sequence does not trace its element"
        if not span.add(x.bits):
            return "basis elements are linearly dependent"
    return None


def test_a_basis_reports_a_dependency_and_a_mismatch_in_element_order():
    g = complete_graph(5)
    other = Graph(list("vwxyz"), [tuple("vwxyz"[i] for i in e) for e in g.edges])
    # element 2, the 4-cycle 0-2-1-3, is the sum of elements 0 and 1
    cycles = ((0, 1, 2), (0, 1, 3), (0, 2, 1, 3), (0, 1, 4), (0, 2, 4), (0, 3, 4))
    elements = [cycle_edge_vector(g, seq) for seq in cycles]
    info = (ElementInfo(tag="test"),) * len(cycles)
    cases = {
        "mismatch after the dependency": elements[:3] + [elements[4], elements[3], elements[5]],
        "mismatch before it": [elements[1], elements[0]] + elements[2:],
        "other host after it": elements[:5] + [EdgeVector(other, elements[5].bits)],
        "other host before it": [EdgeVector(other, elements[0].bits)] + elements[1:],
        "dependency alone": elements,
    }
    seen = set()
    for given_elements in cases.values():
        expected = _element_by_element_error(g, given_elements, cycles)
        seen.add(expected)
        with pytest.raises(CycleSpaceError, match=f"^{expected}$"):
            CycleBasis(g, tuple(given_elements), "test", cycles, False, info)
    assert len(seen) == 3


# --- the integer rule for walk vertices ---

_FAR = 10**5000  # str() refuses it: more than 4300 digits
_RULE_CASES = pytest.mark.parametrize(
    "bad,message",
    [
        (1.0, "vertex index 1.0 is not an integer"),
        ("1", "vertex index '1' is not an integer"),
        (_FAR, "vertex index of more than 4000 digits is out of range"),
    ],
    ids=["float", "string", "far"],
)


@_RULE_CASES
def test_cycle_edge_vector_refuses_a_walk_vertex_by_the_integer_rule(bad, message):
    with pytest.raises(GraphError) as info:
        cycle_edge_vector(cycle_graph(5), (0, bad, 2, 3, 4))
    assert str(info.value) == message


@_RULE_CASES
def test_trace_walks_refuses_a_walk_vertex_by_the_integer_rule(bad, message):
    g = cycle_graph(5)
    good = (0, 1, 2, 3, 4)
    with pytest.raises(GraphError) as info:
        cyclespace._trace_walks(g, [good, (0, bad, 2, 3, 4), good])
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [1.5, "1"], ids=["float", "string"])
def test_a_short_walk_before_a_non_integer_walk_raises_its_own_error(bad):
    g = cycle_graph(5)
    with pytest.raises(GraphError, match="is not an integer"):
        cyclespace._trace_walks(g, [(0, bad, 2)])
    with pytest.raises(CycleSpaceError) as info:
        cyclespace._trace_walks(g, [(0, 1), (0, bad, 2)])
    assert str(info.value) == "a simple cycle needs at least three vertices"


@_RULE_CASES
def test_cycle_basis_refuses_a_walk_vertex_by_the_integer_rule(bad, message):
    basis = greedy_mcb(cycle_graph(5))
    with pytest.raises(GraphError) as info:
        _with_cycles(basis, [(0, bad, 2, 3, 4)])
    assert str(info.value) == message


def test_integer_walk_vertices_of_every_integer_type_keep_their_results():
    g = cycle_graph(5)
    basis = greedy_mcb(g)
    for walk in ((0, 1, 2, 3, 4), tuple(np.arange(5)), (False, True, 2, 3, 4), np.arange(5)):
        assert cycle_edge_vector(g, walk) == basis.elements[0]
        assert _with_cycles(basis, [walk]).elements == basis.elements


# --- a basis from walk arrays ---


def _laid_end_to_end(walks) -> tuple[np.ndarray, np.ndarray]:
    """The walks' vertices in one int64 array, and their lengths."""
    flat = [x for seq in walks for x in seq]
    return np.array(flat, dtype=np.int64), np.array(list(map(len, walks)), dtype=np.int64)


@pytest.mark.parametrize("first, second", list(itertools.permutations(_WALK_FAULTS, 2)))
def test_trace_flat_raises_the_first_faulty_walks_own_error(first, second):
    g = cycle_graph(5)
    with pytest.raises((CycleSpaceError, GraphError)) as own:
        cycle_edge_vector(g, _WALK_FAULTS[first])
    good = (0, 1, 2, 3, 4)
    walks = [good, _WALK_FAULTS[first], good, _WALK_FAULTS[second]]
    with pytest.raises(type(own.value)) as raised:
        cyclespace._trace_flat(g, *_laid_end_to_end(walks))
    assert str(raised.value) == str(own.value)


@pytest.mark.parametrize("bad", [-1, 5, 2**62])
def test_trace_flat_refuses_a_vertex_out_of_range_as_the_walk_check_does(bad):
    g = cycle_graph(5)
    walk = (0, bad, 2, 3, 4)
    with pytest.raises(GraphError) as own:
        cycle_edge_vector(g, walk)
    with pytest.raises(GraphError) as raised:
        cyclespace._trace_flat(g, *_laid_end_to_end([(0, 1, 2, 3, 4), walk]))
    assert str(raised.value) == str(own.value)


def test_trace_flat_traces_as_trace_walks_does(suite):
    for g in suite:
        rp, walks, _ = _walks_of_three_bases(g, 2)
        flat = cyclespace._trace_flat(rp.graph, *_laid_end_to_end(walks))
        assert all(map(np.array_equal, flat, cyclespace._trace_walks(rp.graph, walks)))


def test_a_basis_from_walk_arrays_keeps_the_constructors_refusals():
    info = lambda: ()  # noqa: E731
    g = complete_graph(4)
    dependent = ((0, 1, 2), (0, 1, 3), (0, 2, 1, 3))
    with pytest.raises(CycleSpaceError, match="^basis elements are linearly dependent$"):
        CycleBasis._of_walks(g, "test", False, *_laid_end_to_end(dependent), info)
    five = cycle_graph(5)
    with pytest.raises(CycleSpaceError, match="^basis has 2 elements, cycle space has dimension 1$"):
        CycleBasis._of_walks(five, "test", False, *_laid_end_to_end([(0, 1, 2, 3, 4)] * 2), info)
    with pytest.raises(CycleSpaceError, match="^cycle sequence repeats a vertex$"):
        CycleBasis._of_walks(five, "test", False, *_laid_end_to_end([(0, 1, 2, 1)]), info)
    with pytest.raises(GraphError):
        CycleBasis._of_walks(five, "test", False, *_laid_end_to_end([(0, 2, 1, 3, 4)]), info)


def test_a_basis_from_walk_arrays_builds_what_the_constructor_builds_from_the_same_walks(suite):
    """The decomposition basis's elements, cycles and info, built on read, in any order."""
    from redpow import chord_pair_squares, has_triangles, tree_pair_squares

    for g in suite:
        for k in (2, 3):
            rp, tree, v = build_reduced_power(g, k), bfs_spanning_tree(g, 0), g.num_vertices
            _, vertices, lengths = squares._structured_cycles(rp, tree)
            bounds = np.cumsum(lengths).tolist()
            walks = tuple(tuple(vertices[b - n : b].tolist()) for b, n in zip(bounds, lengths.tolist()))
            infos = [ElementInfo("embedded", f=Monomial.from_word((0,) * (k - 1), v))] * betti(g)
            for tag, family in (("tree-square", tree_pair_squares), ("chord-square", chord_pair_squares)):
                infos += [
                    ElementInfo(tag, (tuple(sorted(s.edge1)), tuple(sorted(s.edge2))), s.f)
                    for s in family(g, tree, k)
                ]
            eager = CycleBasis(rp, None, "decomposition", walks, not has_triangles(g), tuple(infos))
            for order in (("info", "cycles", "elements"), ("elements", "cycles", "info")):
                lazy = squares._decomposition_on(rp, tree)
                assert lazy.total_length == eager.total_length
                for name in order:
                    assert getattr(lazy, name) == getattr(eager, name), (g, k, name)
                assert lazy == eager and all(map(np.array_equal, lazy._trace, eager._trace))
                assert {f.name for f in dataclasses.fields(CycleBasis)} <= set(vars(lazy))


# --- the read path of fields built on read ---


def _lazy_five_cycle(info) -> CycleBasis:
    """The basis of the 5-cycle's one walk, made from walk arrays with the info maker ``info``."""
    return CycleBasis._of_walks(cycle_graph(5), "test", False, *_laid_end_to_end([(0, 1, 2, 3, 4)]), info)


def test_a_field_built_on_read_is_built_once():
    made = []
    lazy = _lazy_five_cycle(lambda: made.append("info") or (ElementInfo(tag="test"),))
    for name in ("elements", "cycles"):
        make = vars(lazy)[f"_make_{name}"]
        vars(lazy)[f"_make_{name}"] = lambda make=make, name=name: made.append(name) or make()
    for name in ("info", "cycles", "elements"):
        first = getattr(lazy, name)
        assert getattr(lazy, name) is first and vars(lazy)[name] is first
    assert made == ["info", "cycles", "elements"]


def test_an_attribute_neither_a_field_nor_built_on_read_is_missing():
    for obj in (_lazy_five_cycle(lambda: (ElementInfo(tag="test"),)), greedy_mcb(cycle_graph(5))):
        with pytest.raises(AttributeError, match=r"^'CycleBasis' object has no attribute 'nothing'$"):
            obj.nothing
        assert getattr(obj, "_make_nothing", None) is None


def test_a_makers_own_error_reaches_the_reader_unchanged():
    def info():
        raise CycleSpaceError("no info for this walk")

    lazy = _lazy_five_cycle(info)
    for _ in range(2):  # nothing is kept, so the second read calls the maker again
        with pytest.raises(CycleSpaceError, match="^no info for this walk$"):
            lazy.info
    assert "info" not in vars(lazy)


_INTEGER_WALK_FAULTS = {
    "short": [(0, 1), (False, True)],
    "repeat": [(0, 1, 2, 1), (False, True, 2, True)],
    "missing": [(0, 2, 1, 3, 4), (False, 2, True, 3, 4)],  # 0-2 is no edge of the 5-cycle
    "past the end": [(0, 5, 2, 3, 4)],
    "negative": [(0, -1, 2, 3, 4)],
}


@pytest.mark.parametrize("fault", list(_INTEGER_WALK_FAULTS))
def test_a_faulty_integer_walk_raises_its_own_error_through_every_tracer(fault):
    g = cycle_graph(5)
    info = (ElementInfo(tag="test"),)
    for ints in _INTEGER_WALK_FAULTS[fault]:
        for walk in (ints, tuple(np.array(ints)), np.array(ints, dtype=np.int32)):
            with pytest.raises((CycleSpaceError, GraphError)) as own:
                cycle_edge_vector(g, walk)
            for trace in (
                lambda: CycleBasis(g, None, "test", (walk,), False, info),
                lambda: cyclespace._trace_flat(g, *_laid_end_to_end([walk])),
            ):
                with pytest.raises(type(own.value)) as raised:
                    trace()
                assert str(raised.value) == str(own.value), (fault, walk)
