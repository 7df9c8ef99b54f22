"""F2 cycle space: vectors, bases, projection, decomposition."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from redpow import (
    CycleBasis,
    CycleSpaceError,
    EdgeVector,
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
    is_cycle,
    project_to_base,
    rank,
    total_length,
)
from redpow.cyclespace import _canonical_cycle

from conftest import cycle_graph, complete_graph, path_graph, random_connected_graph


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


def _with_cycles(basis: CycleBasis, cycles) -> CycleBasis:
    return CycleBasis(
        host=basis.host,
        elements=basis.elements,
        kind=basis.kind,
        cycles=tuple(cycles),
        certified_minimum=basis.certified_minimum,
        info=basis.info,
    )


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
