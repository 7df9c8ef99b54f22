"""Cartesian squares in reduced powers and the structured cycle basis.

Moving one token along a base edge while a second token sits on either
end of another base edge traces a 4-cycle in the reduced power, the
Cartesian square of the two edges relative to a stationary monomial f
of degree k-2. These squares span the kernel of the projection onto
the base cycle space, and two spanning tree indexed families of them
give that kernel a basis:

* tree pair squares combine two distinct tree edges, the deeper one
  indexed j, with f running over monomials on the first j vertices in
  tree order;
* chord pair squares combine a non-tree edge with each tree edge under
  the same f convention.

Adjoining one embedded copy of a minimum cycle basis of the base graph
(all stationary tokens parked on the root) then yields a basis of the
whole cycle space of the power. Its total length is minimum exactly
when the base graph has no triangles: every cycle of a triangle-free
base has length at least four, so no basis can beat squares, while an
embedded triangle of length three would be shorter than any square
that could replace it.

The squares are built as index arrays. Stay words are numbered by rank
(see :mod:`redpow.power`), so a corner's state is two lookups in rank
arrays: the (k-2)-word plus one vertex gives a (k-1)-word, and that
plus another vertex gives the state. With both edges sorted a square's
least corner comes first, so its canonical walk needs only a direction
check; corners, walks and power edges take a few array operations, and
each element's bitset is the sum of its four edge bits.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .errors import GraphError, PowerError
from .graph import Graph, RootedTree, betti, bfs_spanning_tree, check_spanning_tree, has_triangles
from .power import Monomial, ReducedPowerGraph, _insert_ranks, _word_ranks, build_reduced_power
from .cyclespace import (
    CycleBasis,
    EdgeVector,
    ElementInfo,
    Gf2Span,
    _canonical_cycle,
    _edge_ids,
    _walk_bits,
    cycle_edge_vector,
    greedy_mcb,
)

__all__ = [
    "CartesianSquare",
    "tree_pair_squares",
    "chord_pair_squares",
    "tree_square_count",
    "chord_square_count",
    "embed_cycle",
    "decomposition_basis",
    "SquareSpaceReport",
    "verify_square_space",
]


@dataclass(frozen=True)
class CartesianSquare:
    """4-cycle swapping single-token moves along two base edges.

    With edge1 = (a, b), edge2 = (c, d) and stationary monomial f the
    cycle visits acf, bcf, bdf, adf. The two edges must be distinct as
    unordered pairs; sharing an endpoint is fine.
    """

    edge1: tuple[int, int]
    edge2: tuple[int, int]
    f: Monomial

    def __post_init__(self):
        if frozenset(self.edge1) == frozenset(self.edge2):
            raise PowerError("a Cartesian square needs two distinct edges")

    def states(self, rp: ReducedPowerGraph) -> tuple[int, int, int, int]:
        fw = _stationary_word(rp, self.f, rp.k - 2)
        for pair in (self.edge1, self.edge2):
            if not rp.base.has_edge(*pair):
                raise PowerError(f"{pair} is not an edge of the base graph")
        a, b = self.edge1
        c, d = self.edge2
        return tuple(rp.state_of(fw + pair) for pair in ((c, a), (c, b), (d, b), (d, a)))

    def edge_vector(self, rp: ReducedPowerGraph) -> EdgeVector:
        return cycle_edge_vector(rp, self.states(rp))

    def describe(self, labels: tuple[str, ...]) -> str:
        a, b = self.edge1
        c, d = self.edge2
        fs = self.f.to_string(labels)
        return f"({labels[a]}{labels[b]} x {labels[c]}{labels[d]}) f={fs}"


def _stationary_word(rp: ReducedPowerGraph, f: Monomial, degree: int) -> tuple[int, ...]:
    """Word of a stationary monomial, checked against the power's base and k."""
    if f.degree != degree:
        raise PowerError(f"stationary monomial has degree {f.degree}, need {degree}")
    if len(f.exponents) != rp.base.num_vertices:
        raise PowerError(f"{f.exponents} is not a monomial over the base vertices")
    return f.word()


def _square_words(g: Graph, t: RootedTree, k: int) -> tuple[int, np.ndarray]:
    """Both square families, tree pairs first: the tree pair count and one row per square.

    Row ``(a, b, c, d, w)`` is the square of edges ``(a, b)`` and ``(c, d)``
    whose stationary tokens sit on the ``w``-th (k-2)-word in rank order.
    Checks the tree once; for k < 2 it warns and returns no squares.
    Each tree edge is oriented (parent, child), and its stay words, the
    multisets over the tree-order prefix ending at the child, are ranked
    once per tree-order position.
    """
    check_spanning_tree(g, t)
    if not t.is_depth_ordered():
        raise GraphError("tree order must be non-decreasing in depth")
    if k < 2:
        warnings.warn("no Cartesian squares exist for k < 2", stacklevel=4)
        return 0, np.empty((0, 5), dtype=np.int64)
    order = np.array(t.order, dtype=np.int64)
    levels = []  # ranks of the stay words at tree-order positions 1, 2, ...
    for j in range(1, len(t.order)):
        combos = list(combinations_with_replacement(range(j + 1), k - 2))
        words = np.sort(order[np.array(combos, dtype=np.int64).reshape(len(combos), k - 2)], axis=1)
        levels.append(_word_ranks(words, g.num_vertices))
    if not levels:
        return 0, np.empty((0, 5), dtype=np.int64)
    tree_edges = np.array([(t.parent[c], c) for c in t.order[1:]], dtype=np.int64)

    def block(first: np.ndarray, second: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Rows pairing edge rows ``first`` and ``second`` with stay ranks ``ws``."""
        return np.column_stack([first, second, ws]).reshape(-1, 5)

    rows = [
        block(
            np.repeat(tree_edges[:j], len(ws), axis=0),
            np.broadcast_to(tree_edges[j], (j * len(ws), 2)),
            np.tile(ws, j),
        )
        for j, ws in enumerate(levels)
    ]
    n_tree = sum(map(len, rows))
    level_edges = np.repeat(tree_edges, list(map(len, levels)), axis=0)
    level_words = np.concatenate(levels)
    tree_pairs = t.tree_pairs()
    for chord in g.edges:
        if chord not in tree_pairs:
            rows.append(block(np.broadcast_to(chord, level_edges.shape), level_edges, level_words))
    return n_tree, np.concatenate(rows)


def _family(g: Graph, t: RootedTree, k: int, tag: str) -> list[CartesianSquare]:
    n_tree, rows = _square_words(g, t, k)
    rows = rows[:n_tree] if tag == "tree-square" else rows[n_tree:]
    if not len(rows):
        return []
    v = g.num_vertices
    fs = Monomial._of_words(list(combinations_with_replacement(range(v), k - 2)), v)
    return [CartesianSquare((a, b), (c, d), fs[w]) for a, b, c, d, w in rows.tolist()]


def tree_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares built from two distinct tree edges.

    For the deeper edge at tree-order position j (0-based, so j >= 2)
    the shallower edge ranges over positions 1..j-1 and f over degree
    k-2 monomials on the first j+1 vertices in tree order.
    """
    return _family(g, t, k, "tree-square")


def chord_pair_squares(g: Graph, t: RootedTree, k: int) -> list[CartesianSquare]:
    """Squares pairing each non-tree edge with each tree edge.

    The tree edge at position j (0-based, j >= 1) contributes with f
    over degree k-2 monomials on the first j+1 vertices in tree order;
    chords iterate in ascending edge-index order.
    """
    return _family(g, t, k, "chord-square")


def tree_square_count(v: int, k: int) -> int:
    """Closed form for the tree pair family size."""
    return (v - 1) * comb(k + v - 2, k - 1) - comb(k + v - 1, k) + 1


def chord_square_count(beta: int, v: int, k: int) -> int:
    """Closed form for the chord pair family size."""
    return beta * (comb(k + v - 2, k - 1) - 1)


def embed_cycle(rp: ReducedPowerGraph, cycle: tuple[int, ...], f: Monomial) -> EdgeVector:
    """Copy of a base cycle inside the power, stationary tokens on f.

    ``cycle`` is a simple cycle of the base graph as a vertex sequence;
    ``f`` must have degree k-1. Base vertex c maps to state c*f.
    """
    fw = _stationary_word(rp, f, rp.k - 1)
    cycle_edge_vector(rp.base, cycle)  # validates the base cycle
    return cycle_edge_vector(rp, [rp.state_of(fw + (c,)) for c in cycle])


def _structured_cycles(
    base: Graph, tree: RootedTree, k: int
) -> tuple[ReducedPowerGraph, list[tuple[int, ...]], list[int], list[ElementInfo], np.ndarray]:
    """The power, with the canonical walks, edge bitsets and records of its structured cycles.

    First one embedded copy of a greedy minimum cycle basis of the base,
    the k-1 stationary tokens parked on the tree's root; then the tree
    pair and chord pair squares of the tree in enumeration order. The
    last item holds the four power edges of every square, one row each.
    """
    rp = build_reduced_power(base, k)
    n_tree, rows = _square_words(base, tree, k)
    v = base.num_vertices
    parked = (tree.root,) * (k - 1)
    _, plus_two = _insert_ranks(v, k)  # plus_two[m, q]: the state of the m-th (k-1)-word plus q
    parked_row = plus_two[_word_ranks(np.full((1, k - 1), tree.root), v)[0]]
    cycles = [_canonical_cycle(parked_row[list(seq)].tolist()) for seq in greedy_mcb(base).cycles]
    bits = [_walk_bits(rp.graph, seq) for seq in cycles]
    infos = [ElementInfo(tag="embedded", f=Monomial.from_word(parked, v))] * len(cycles)
    if not len(rows):
        return rp, cycles, bits, infos, np.empty((0, 4), dtype=np.int64)

    # corner w + p + q: the (k-2)-word w plus p is a (k-1)-word, plus q a state;
    # with a < b and c < d, w + c + a is the pointwise least word, so it leads
    rows[:, :2].sort(axis=1)
    rows[:, 2:4].sort(axis=1)
    a, b, c, d, w = rows.T
    _, plus_one = _insert_ranks(v, k - 1)
    walks = np.column_stack(
        [plus_two[plus_one[w, p], q] for p, q in ((c, a), (c, b), (d, b), (d, a))]
    )
    flip = walks[:, 3] < walks[:, 1]
    walks[flip] = walks[flip][:, [0, 3, 2, 1]]
    ids = _edge_ids(rp.graph, walks, np.roll(walks, -1, axis=1))
    cycles.extend(map(tuple, walks.tolist()))
    bits.extend(1 << e0 | 1 << e1 | 1 << e2 | 1 << e3 for e0, e1, e2, e3 in ids.tolist())
    fs = Monomial._of_words(list(combinations_with_replacement(range(v), k - 2)), v)
    tags = ["tree-square"] * n_tree + ["chord-square"] * (len(rows) - n_tree)
    infos.extend(
        ElementInfo(tag=tag, base_edges=((i, j), (p, q)), f=fs[fw])
        for tag, (i, j, p, q, fw) in zip(tags, rows.tolist())
    )
    return rp, cycles, bits, infos, ids


def decomposition_basis(base: Graph, k: int, root: int = 0) -> CycleBasis:
    """Cycle basis of the k-th reduced power from base MCB plus squares.

    Combines one embedded copy of a greedy minimum cycle basis of the
    base (stationary tokens parked on the root) with the tree pair and
    chord pair square families of a breadth-first spanning tree rooted
    there. The result is always a basis; it is a certified minimum
    cycle basis exactly when the base graph has no triangles.
    """
    if k < 2:
        raise PowerError("the decomposition basis needs k >= 2")
    rp, cycles, bits, infos, _ = _structured_cycles(base, bfs_spanning_tree(base, root), k)
    return CycleBasis(
        host=rp,
        elements=tuple(EdgeVector(rp, x) for x in bits),
        kind="decomposition",
        cycles=tuple(cycles),
        certified_minimum=not has_triangles(base),
        info=tuple(infos),
    )


@dataclass(frozen=True)
class SquareSpaceReport:
    """Outcome of the square-space rank and projection checks."""

    k: int
    tree_squares: int
    chord_squares: int
    tree_squares_formula: int
    chord_squares_formula: int
    betti_base: int
    betti_power: int
    rank_squares: int
    counts_match: bool
    independent: bool
    projects_to_zero: bool
    spans_kernel: bool
    direct_sum: bool

    @property
    def passed(self) -> bool:
        return (
            self.counts_match
            and self.independent
            and self.projects_to_zero
            and self.spans_kernel
            and self.direct_sum
        )

    def as_dict(self) -> dict:
        return asdict(self) | {"passed": self.passed}


def verify_square_space(base: Graph, tree: RootedTree, k: int) -> SquareSpaceReport:
    """Check the square families against the kernel of the projection.

    Asserts four facts about the families over the given tree: their
    sizes match the closed forms, they are linearly independent, every
    square projects to zero in the base cycle space, and together with
    an embedded base MCB they span the full cycle space of the power.
    """
    rp, cycles, bits, infos, square_edges = _structured_cycles(base, tree, k)
    tags = Counter(info.tag for info in infos)
    n_tree, n_chord, n_embedded = tags["tree-square"], tags["chord-square"], tags["embedded"]
    beta_base = betti(base)
    beta_power = betti(rp.graph)
    tsq_formula = tree_square_count(base.num_vertices, k)
    csq_formula = chord_square_count(beta_base, base.num_vertices, k)

    span = Gf2Span()
    for x in bits[n_embedded:]:
        span.add(x)
    rank_squares = span.rank
    # the square span grows into the span of squares plus embedded base MCB
    for x in bits[:n_embedded]:
        span.add(x)
    # a square projects to zero when the base edges its four power edges
    # cross (by their annotations) pair up
    crossed = np.array(
        [base.edge_position(i, j) for i, j, _ in rp.annotations], dtype=np.int64
    )[square_edges]
    crossed.sort(axis=1)
    zero_proj = bool(((crossed[:, 0] == crossed[:, 1]) & (crossed[:, 2] == crossed[:, 3])).all())

    return SquareSpaceReport(
        k=k,
        tree_squares=n_tree,
        chord_squares=n_chord,
        tree_squares_formula=tsq_formula,
        chord_squares_formula=csq_formula,
        betti_base=beta_base,
        betti_power=beta_power,
        rank_squares=rank_squares,
        counts_match=n_tree == tsq_formula and n_chord == csq_formula,
        independent=rank_squares == n_tree + n_chord,
        projects_to_zero=zero_proj,
        spans_kernel=rank_squares == beta_power - beta_base,
        direct_sum=span.rank == beta_power,
    )
